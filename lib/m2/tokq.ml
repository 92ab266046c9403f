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

   The mutex only guards the published-block structure for the real
   domain engine; under the DES the queue is uncontended. *)

open Mcc_util
open Mcc_sched

type t = {
  name : string;
  block_size : int; (* tokens per published block; the paper's hold 64 *)
  mu : Mutex.t;
  blocks : Token.t array Vec.t; (* published, completely filled blocks *)
  mutable current : Token.t list; (* block being filled, reversed *)
  mutable current_n : int;
  mutable closed : bool;
  avail_kind : Event.kind;
  mutable avail : Event.t; (* signaled when a block is published or the queue closes *)
  mutable last_loc : Loc.t;
  mutable total : int; (* total tokens ever enqueued *)
}

let fresh_avail kind name = Event.create ~kind (name ^ ".avail")

let create ~block_size ~barrier ~name =
  if block_size < 1 then invalid_arg "Tokq.create: block size must be positive";
  let avail_kind = if barrier then Event.Barrier else Event.Handled in
  {
    name;
    block_size;
    mu = Mutex.create ();
    blocks = Vec.create [||];
    current = [];
    current_n = 0;
    closed = false;
    avail_kind;
    avail = fresh_avail avail_kind name;
    last_loc = Loc.none;
    total = 0;
  }

let sibling t ~name =
  create ~block_size:t.block_size ~barrier:(t.avail_kind = Event.Barrier) ~name

let publish_current t =
  Eff.work Costs.tokq_block_publish;
  let arr = Array.of_list (List.rev t.current) in
  t.current <- [];
  t.current_n <- 0;
  Mutex.lock t.mu;
  Vec.push t.blocks arr;
  let old = t.avail in
  t.avail <- fresh_avail t.avail_kind t.name;
  Mutex.unlock t.mu;
  (* signal outside the mutex: the engine may reschedule inside *)
  Eff.signal old

let put t tok =
  if t.closed then invalid_arg (t.name ^ ": put after close");
  t.current <- tok :: t.current;
  t.current_n <- t.current_n + 1;
  t.last_loc <- tok.Token.loc;
  t.total <- t.total + 1;
  if t.current_n >= t.block_size then publish_current t

let close t =
  if not t.closed then begin
    if t.current_n > 0 then publish_current t;
    Mutex.lock t.mu;
    t.closed <- true;
    let old = t.avail in
    Mutex.unlock t.mu;
    Eff.signal old
  end

let total_tokens t = t.total

(* ------------------------------------------------------------------ *)

(* A reader cursor.  [read] waits on the queue's availability event when
   it has consumed every published block and the queue is still open; at
   end of stream it yields Eof tokens forever. *)
let reader t =
  let block = ref 0 in
  let off = ref 0 in
  let cache = ref [||] in
  let rec pull () =
    if !off < Array.length !cache then begin
      let tok = (!cache).(!off) in
      incr off;
      tok
    end
    else begin
      Mutex.lock t.mu;
      if !block < Vec.length t.blocks then begin
        cache := Vec.get t.blocks !block;
        incr block;
        off := 0;
        Mutex.unlock t.mu;
        Eff.work Costs.tokq_block_fetch;
        pull ()
      end
      else if t.closed then begin
        Mutex.unlock t.mu;
        Token.eof t.last_loc
      end
      else begin
        let ev = t.avail in
        Mutex.unlock t.mu;
        Eff.wait ev;
        pull ()
      end
    end
  in
  Reader.of_fn pull
