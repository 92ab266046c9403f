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

   Blocks are packed.  A Lexor runs far ahead of its consumers, so every
   queued token stays live until the compile ends; a block therefore
   holds two ints per token instead of a boxed token:

   - a kind code, whose low [tag_bits] bits are a tag and whose high
     bits a value: a reserved word or a symbol is its index in
     {!Token.kw_kinds} or {!Token.sym_kinds}; [Eof] has no value;
     [SplitMark], [IntLit] and [CharLit] carry theirs when it fits; an
     [Ident] is its length, its text being the slice of the queue's
     source text at its offset;
   - a packed location: offset + 1, line and column in [off_bits],
     [line_bits] and [col_bits] bits.

   Every other token — real, string and error literals, values that do
   not fit, an identifier whose text is not its source slice, a
   location that does not pack — goes whole into the block's payload
   array, and its code is its payload index.  A token read back is
   structurally equal to the token put.

   The producer fills a block-sized array and publishes that very array
   when it is full (or, partly filled, at close), with the payload of
   that block, then starts a fresh one.  A published block and its
   payload are never written again, so readers (on any domain) share
   them without copying or locking them.  Every published block holds
   [block_size] tokens except possibly the last one published at close,
   whose length is [last_len].  The end-of-stream location (what a
   reader's Eof carries) is the location of the last token put, read
   once at close.

   The mutex only guards the published-block structure for the real
   domain engine; under the DES the queue is uncontended. *)

open Mcc_util
open Mcc_sched

(* token [i] is coded by [words.(2i)] and located by [words.(2i+1)] *)
type block = { words : int array; payload : Token.t array }

let no_block = { words = [||]; payload = [||] }

type t = {
  name : string;
  src : string; (* the source text identifiers are slices of *)
  block_size : int; (* tokens per published block; the paper's hold 64 *)
  mu : Mutex.t;
  blocks : block Vec.t; (* published blocks; all but the last hold [block_size] tokens *)
  mutable last_len : int; (* tokens in the last published block *)
  mutable words : int array; (* the block being filled; [||] before its first token *)
  mutable payload : Token.t list; (* its payload, newest first *)
  mutable n_payload : int;
  mutable current_n : int;
  mutable closed : bool;
  avail_kind : Event.kind;
  avail_name : string;
  mutable avail : Event.t; (* signaled when a block is published or the queue closes *)
  mutable eof_loc : Loc.t; (* set at close *)
}

(* ------------------------------------------------------------------ *)
(* Packing *)

let tag_bits = 3
let tag_kw = 0
let tag_sym = 1
let tag_eof = 2
let tag_split = 3
let tag_int = 4
let tag_char = 5
let tag_ident = 6
let tag_payload = 7

(* no inline code has the payload tag, so -1 means "no inline code" *)
let no_code = -1
let code tag v = (v lsl tag_bits) lor tag
let fits v = (v lsl tag_bits) asr tag_bits = v

let col_bits = 16
let line_bits = 20
let off_bits = 26

(* -1 when the location does not pack; a packed one is never negative *)
let pack_loc { Loc.line; col; off } =
  if
    col >= 0
    && col < 1 lsl col_bits
    && line >= 0
    && line < 1 lsl line_bits
    && off >= -1
    && off < (1 lsl off_bits) - 1
  then ((off + 1) lsl (line_bits + col_bits)) lor (line lsl col_bits) lor col
  else -1

(* [s] is the slice of [src] at [off] *)
let is_slice src s off =
  let len = String.length s in
  off >= 0
  && len <= String.length src - off
  &&
  let rec eq i =
    i = len || (String.unsafe_get s i = String.unsafe_get src (off + i) && eq (i + 1))
  in
  eq 0

let inline_code t (tok : Token.t) =
  match tok.kind with
  | Token.Kw k -> code tag_kw (Token.kw_index k)
  | Token.Sym s -> code tag_sym (Token.sym_index s)
  | Token.Eof -> tag_eof
  | Token.SplitMark n when fits n -> code tag_split n
  | Token.IntLit n when fits n -> code tag_int n
  | Token.CharLit c -> code tag_char (Char.code c)
  | Token.Ident s when is_slice t.src s tok.loc.off -> code tag_ident (String.length s)
  | _ -> no_code

let get t (b : block) i =
  let c = Array.unsafe_get b.words (2 * i) in
  let tag = c land ((1 lsl tag_bits) - 1) and v = c asr tag_bits in
  if tag = tag_payload then b.payload.(v)
  else begin
    let w = Array.unsafe_get b.words ((2 * i) + 1) in
    let col = w land ((1 lsl col_bits) - 1)
    and line = (w lsr col_bits) land ((1 lsl line_bits) - 1)
    and off = (w lsr (line_bits + col_bits)) - 1 in
    let kind =
      if tag = tag_kw then Token.kw_kinds.(v)
      else if tag = tag_sym then Token.sym_kinds.(v)
      else if tag = tag_ident then Token.Ident (String.sub t.src off v)
      else if tag = tag_int then Token.IntLit v
      else if tag = tag_eof then Token.Eof
      else if tag = tag_split then Token.SplitMark v
      else Token.CharLit (Char.chr v)
    in
    { Token.kind; loc = { Loc.line; col; off } }
  end

(* ------------------------------------------------------------------ *)

let create ~src ~block_size ~barrier ~name =
  if block_size < 1 then invalid_arg "Tokq.create: block size must be positive";
  let avail_kind = if barrier then Event.Barrier else Event.Handled in
  let avail_name = name ^ ".avail" in
  {
    name;
    src;
    block_size;
    mu = Mutex.create ();
    blocks = Vec.create no_block;
    last_len = block_size;
    words = [||];
    payload = [];
    n_payload = 0;
    current_n = 0;
    closed = false;
    avail_kind;
    avail_name;
    avail = Event.create ~kind:avail_kind avail_name;
    eof_loc = Loc.none;
  }

let sibling t ~name =
  create ~src:t.src ~block_size:t.block_size ~barrier:(t.avail_kind = Event.Barrier) ~name

let publish_current t =
  Eff.work Costs.tokq_block_publish;
  let block = { words = t.words; payload = Array.of_list (List.rev t.payload) }
  and n = t.current_n in
  t.words <- [||];
  t.payload <- [];
  t.n_payload <- 0;
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
  if n = 0 then t.words <- Array.make (2 * t.block_size) 0;
  let loc = pack_loc tok.Token.loc in
  let c = if loc < 0 then no_code else inline_code t tok in
  if c = no_code then begin
    Array.unsafe_set t.words (2 * n) (code tag_payload t.n_payload);
    t.payload <- tok :: t.payload;
    t.n_payload <- t.n_payload + 1
  end
  else begin
    Array.unsafe_set t.words (2 * n) c;
    Array.unsafe_set t.words ((2 * n) + 1) loc
  end;
  t.current_n <- n + 1;
  if n + 1 = t.block_size then publish_current t

let close t =
  if not t.closed then begin
    if t.current_n > 0 then publish_current t;
    let eof_loc =
      match Vec.length t.blocks with
      | 0 -> Loc.none
      | nb -> (get t (Vec.get t.blocks (nb - 1)) (t.last_len - 1)).Token.loc
    in
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

(* A reader keeps its current block: a token read from it is decoded in
   place, with no lock.  Fetching the next published block waits on the
   queue's availability event when the reader has every published block
   and the queue is still open; at end of stream it yields Eof tokens
   forever. *)
type cursor = { mutable block : block; mutable off : int; mutable len : int; mutable fetched : int }

let reader t =
  let cur = { block = no_block; off = 0; len = 0; fetched = 0 } in
  let rec pull () =
    if cur.off < cur.len then begin
      let tok = get t cur.block cur.off in
      cur.off <- cur.off + 1;
      tok
    end
    else begin
      Mutex.lock t.mu;
      let nb = Vec.length t.blocks in
      if cur.fetched < nb then begin
        cur.block <- Vec.get t.blocks cur.fetched;
        cur.len <- (if cur.fetched = nb - 1 then t.last_len else t.block_size);
        cur.off <- 0;
        cur.fetched <- cur.fetched + 1;
        Mutex.unlock t.mu;
        Eff.work Costs.tokq_block_fetch;
        pull ()
      end
      else if t.closed then begin
        Mutex.unlock t.mu;
        Token.eof t.eof_loc
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
