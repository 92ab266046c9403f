(** Token readers: the pull interface consumed by the Splitter, the
    Importer and the parsers, abstracting over live token queues
    (concurrent compiler) versus a directly pulled lexer (sequential
    compiler), with the small fixed lookahead needed to resolve tokens
    like PROCEDURE (paper §2.1). *)

type t

(** Wrap a pull function ([Eof] tokens forever at end).  A token
    queue's reader is one: its function decodes the queue's packed
    blocks ({!Tokq.reader}). *)
val of_fn : (unit -> Token.t) -> t

(** Pull a lexer directly (the sequential compiler's path). *)
val of_lexer : Lexer.t -> t

(** Replay a fixed token list (tests). *)
val of_list : Token.t list -> t

val next : t -> Token.t

(** One-token lookahead, without consuming. *)
val peek : t -> Token.t

(** Two-token lookahead. *)
val peek2 : t -> Token.t

(** Consume everything up to [Eof] (tests). *)
val drain : t -> Token.t list
