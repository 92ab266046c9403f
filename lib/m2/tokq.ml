(* Token queues: the producer/consumer structure between a Lexor task
   and the tasks that consume its token stream (paper §2.3.1):

   "the Splitter task and the Lexor task of a main module stream
   communicate via a lexical token queue.  The elements in this queue are
   blocks of tokens.  Each block is associated with one event.  When the
   Lexor fills a token block, the block's event is signaled, indicating
   to the Splitter that it now may begin to read the tokens of that
   block."

   The paper makes availability events [Barrier] events: consumers are
   only started once their Lexor has begun, and Lexors never block, so a
   consumer waiting for the next block cannot deadlock (§2.3.3) and the
   paper's Topaz threads saved a costly reschedule by spinning.  Under
   our cost model a reschedule is much cheaper than holding a processor
   through a block's production, so queues default to [Handled]
   availability events; pass [~barrier:true] to reproduce the paper's
   choice (the bench harness measures the difference as an ablation).
   A queue may have several independent readers (the main stream feeds
   both the Splitter and the Importer).

   Blocks are filled in place: the producer writes each token into a
   block-sized array and publishes that very array when it is full (or,
   partly filled, at close), then starts a fresh one.  A published
   block is never written again, so readers share it without copying.
   Every published block holds [block_size] tokens except possibly the
   last one published at close, whose length is [last_len].  The
   end-of-stream location (what a reader's Eof carries) is the location
   of the last token put, read once at close.

   The mutex only guards the published-block structure for the real
   domain engine; under the DES the queue is uncontended. *)

open Mcc_util
open Mcc_sched

type t = {
  name : string;
  block_size : int; (* tokens per published block; the paper's hold 64 *)
  mu : Mutex.t;
  blocks : Token.t array Vec.t; (* published blocks; all but the last hold [block_size] tokens *)
  mutable last_len : int; (* tokens in the last published block *)
  mutable current : Token.t array; (* the block being filled; [||] before its first token *)
  mutable current_n : int;
  mutable closed : bool;
  avail_kind : Event.kind;
  avail_name : string;
  mutable avail : Event.t; (* signaled when a block is published or the queue closes *)
  mutable eof_loc : Loc.t; (* set at close *)
}

let create ~block_size ~barrier ~name =
  if block_size < 1 then invalid_arg "Tokq.create: block size must be positive";
  let avail_kind = if barrier then Event.Barrier else Event.Handled in
  let avail_name = name ^ ".avail" in
  {
    name;
    block_size;
    mu = Mutex.create ();
    blocks = Vec.create [||];
    last_len = block_size;
    current = [||];
    current_n = 0;
    closed = false;
    avail_kind;
    avail_name;
    avail = Event.create ~kind:avail_kind avail_name;
    eof_loc = Loc.none;
  }

let sibling t ~name =
  create ~block_size:t.block_size ~barrier:(t.avail_kind = Event.Barrier) ~name

let publish_current t =
  Eff.work Costs.tokq_block_publish;
  let block = t.current and n = t.current_n in
  t.current <- [||];
  t.current_n <- 0;
  Mutex.lock t.mu;
  Vec.push t.blocks block;
  t.last_len <- n;
  let old = t.avail in
  t.avail <- Event.create ~kind:t.avail_kind t.avail_name;
  Mutex.unlock t.mu;
  (* signal outside the mutex: the engine may reschedule inside *)
  Eff.signal old

let put t tok =
  if t.closed then invalid_arg (t.name ^ ": put after close");
  let n = t.current_n in
  (* a fresh block starts out filled with its first token *)
  if n = 0 then t.current <- Array.make t.block_size tok
  else Array.unsafe_set t.current n tok;
  t.current_n <- n + 1;
  if n + 1 = t.block_size then publish_current t

let last_token t =
  if t.current_n > 0 then Some t.current.(t.current_n - 1)
  else
    let nb = Vec.length t.blocks in
    if nb = 0 then None else Some (Vec.get t.blocks (nb - 1)).(t.last_len - 1)

let close t =
  if not t.closed then begin
    let eof_loc = match last_token t with Some tok -> tok.Token.loc | None -> Loc.none in
    if t.current_n > 0 then publish_current t;
    Mutex.lock t.mu;
    t.eof_loc <- eof_loc;
    t.closed <- true;
    let old = t.avail in
    Mutex.unlock t.mu;
    Eff.signal old
  end

let total_tokens t =
  match Vec.length t.blocks with
  | 0 -> t.current_n
  | nb -> ((nb - 1) * t.block_size) + t.last_len + t.current_n

(* ------------------------------------------------------------------ *)

(* A reader: fetching the next published block waits on the queue's
   availability event when the reader has every published block and the
   queue is still open; at end of stream it yields Eof tokens forever. *)
let reader t =
  let next_block = ref 0 in
  let rec fetch () =
    Mutex.lock t.mu;
    let nb = Vec.length t.blocks in
    if !next_block < nb then begin
      let block = Vec.get t.blocks !next_block in
      let len = if !next_block = nb - 1 then t.last_len else t.block_size in
      incr next_block;
      Mutex.unlock t.mu;
      Eff.work Costs.tokq_block_fetch;
      (block, len)
    end
    else if t.closed then begin
      Mutex.unlock t.mu;
      ([| Token.eof t.eof_loc |], 1)
    end
    else begin
      let ev = t.avail in
      Mutex.unlock t.mu;
      Eff.wait ev;
      fetch ()
    end
  in
  Reader.of_blocks fetch
