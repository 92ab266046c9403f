(** Token queues: the producer/consumer structure between a Lexor task
    and its consumers (paper §2.3.1) — tokens travel in blocks (64 in
    the paper), each published under an availability event.

    The paper makes availability events barrier events; under this cost
    model a reschedule is cheaper than holding the processor, so queues
    default to handled events ([~barrier:true] restores the paper's
    choice — benchmarked as an ablation).  A queue may have several
    independent readers (the main stream feeds both the Splitter and
    the Importer).

    Blocks are packed: two ints per token, a kind code and a location
    (line, column and offset in one int).  Reserved words, symbols,
    [Eof], [SplitMark], [CharLit] and [IntLit] are coded inline; an
    [Ident] is coded as its length and read back as the slice of the
    queue's source text at its offset.  Any other token, or one whose
    value, text or location does not fit, is kept whole in the block's
    payload array.  A token read is structurally equal to the token put.

    [put] fills a block-sized array and publishes that array itself
    when it is full, and starts a fresh one.  Readers share published
    blocks and decode a token only when it is pulled; no published
    block or payload is written again.  The end-of-stream location a
    reader's [Eof] carries is the location of the last token put, taken
    once at [close]. *)

type t

(** A queue over the source text [src] (the file its tokens are lexed
    from), publishing a block every [block_size] tokens under handled
    availability events, or barrier events with [~barrier:true].
    @raise Invalid_argument if [block_size < 1]. *)
val create : src:string -> block_size:int -> barrier:bool -> name:string -> t

(** A fresh queue with [t]'s source text, block size and
    availability-event kind. *)
val sibling : t -> name:string -> t

(** Append a token; publishes a block (and signals its event) every
    block-size tokens.
    @raise Invalid_argument after [close]. *)
val put : t -> Token.t -> unit

(** Publish any partial block and mark the stream ended; readers then
    see [Eof] tokens forever, located at the last token put
    ({!Loc.none} if there was none). *)
val close : t -> unit

(** Total tokens ever enqueued. *)
val total_tokens : t -> int

(** A fresh independent cursor.  Reading waits (through the engine) for
    the next block when it has consumed everything published. *)
val reader : t -> Reader.t
