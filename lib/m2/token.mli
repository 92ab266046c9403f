(** Lexical tokens of Modula-2+.

    Reserved words determine the lexical structure of the language — the
    property the paper's whole approach depends on (§1): streams can be
    identified by a finite-state recognizer over the token sequence.

    [SplitMark] is synthetic: the Splitter inserts it into the parent
    stream where a procedure body was diverted, carrying the child
    stream's id. *)

type kw =
  | AND | ARRAY | BEGIN | BY | CASE | CONST | DEFINITION | DIV | DO | ELSE | ELSIF | END
  | EXCEPT  (** Modula-2+ *)
  | EXIT | EXPORT
  | FINALLY  (** Modula-2+ *)
  | FOR | FROM | IF | IMPLEMENTATION | IMPORT | IN
  | LOCK  (** Modula-2+ *)
  | LOOP | MOD | MODULE | NOT | OF | OR
  | PASSING  (** Modula-2+ (accepted, unused) *)
  | POINTER | PROCEDURE | QUALIFIED
  | RAISE  (** Modula-2+ *)
  | RECORD | REPEAT | RETURN | SET | THEN | TO
  | TRY  (** Modula-2+ *)
  | TYPE | UNTIL | VAR | WHILE | WITH

type sym =
  | Plus | Minus | Star | Slash
  | Assign  (** [:=] *)
  | Eq
  | Neq  (** [#] or [<>] *)
  | Lt | Le | Gt | Ge
  | Lparen | Rparen | Lbracket | Rbracket | Lbrace | Rbrace
  | Comma | Semi | Colon | DotDot | Dot | Caret | Bar
  | Amp  (** [&] = AND *)
  | Tilde  (** [~] = NOT *)

type kind =
  | Ident of string
  | IntLit of int
  | RealLit of float
  | CharLit of char
  | StrLit of string
  | Kw of kw
  | Sym of sym
  | SplitMark of int  (** procedure body diverted to this stream *)
  | Error of string  (** lexical error, reported by the consumer *)
  | Eof

type t = { kind : kind; loc : Loc.t }

val make : kind -> Loc.t -> t
val eof : Loc.t -> t

(** All reserved words with their spellings. *)
val keywords : (string * kw) list

val lookup_keyword : string -> kw option

(** All symbols, in declaration order. *)
val symbols : sym list

(** Index tables for compact token storage: [kw_kinds.(kw_index k)] is
    the one shared [Kw k] kind, indexed in {!keywords} order, and
    [sym_kinds.(sym_index s)] the shared [Sym s], in {!symbols} order.
    Read-only. *)
val kw_index : kw -> int
val kw_kinds : kind array
val sym_index : sym -> int
val sym_kinds : kind array

(** [word src start len] is the kind of the word spelled by the [len]
    bytes of [src] from [start] (with [len > 0]): the one shared [Kw]
    kind when it is a reserved word, else a fresh [Ident]. *)
val word : string -> int -> int -> kind
val kw_name : kw -> string
val sym_name : sym -> string
val kind_to_string : kind -> string
val describe : t -> string
val is_kw : t -> kw -> bool
val is_sym : t -> sym -> bool
val is_ident : t -> bool
val is_eof : t -> bool
