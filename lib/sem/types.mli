(** The compiler's type representations and compatibility rules.

    Structured types (enumerations, arrays, records, pointers, sets)
    carry an identity and obey Modula-2 name equivalence; basic types
    and subranges compare structurally.  An identity is a digest of
    where the type is declared, so it is the same in every compilation,
    engine and process that analyses the same declaration; interface
    artifacts carry identities across compilations. *)

(** A structured type's identity: a 16-byte digest of its declaration
    path. *)
type uid = string

type ty =
  | TInt
  | TCard
  | TBool
  | TChar
  | TReal
  | TBitset
  | TEnum of enum_info
  | TSub of ty * int * int  (** base, lo, hi *)
  | TArr of arr_info
  | TOpenArr of ty  (** open-array formal: ARRAY OF elem *)
  | TRec of rec_info
  | TPtr of ptr_info
  | TSet of set_info
  | TProc of signature
  | TStrLit of int  (** string literal of length n *)
  | TNil
  | TExc  (** Modula-2+ EXCEPTION *)
  | TMutex  (** Modula-2+ MUTEX (LOCK target) *)
  | TErr  (** error type: compatible with everything, silences cascades *)

and enum_info = { euid : uid; ename : string; elems : string array }
and arr_info = { auid : uid; index : ty; lo : int; hi : int; elem : ty }
and field = { fty : ty; fslot : int }
and rec_info = { ruid : uid; rname : string; fields : (string * field) list }
and ptr_info = { puid : uid; pname : string; mutable target : ty }
and set_info = { suid : uid; sbase : ty; slo : int; shi : int }
and param = { mode_var : bool; pty : ty }
and signature = { params : param list; result : ty option }

(** [uid path] is the identity of the type declared at [path]: equal
    paths give equal identities, and distinct paths distinct ones up to
    a digest collision. *)
val uid : string -> uid

(** Sets compile to a 62-bit mask: the maximum element range. *)
val max_set_bits : int

(** A printable name, for diagnostics. *)
val name : ty -> string

(** Strip subranges down to the base type. *)
val base : ty -> ty

val is_error : ty -> bool

(** Usable as array index, case selector, FOR control and set base:
    includes CHAR-literal strings of length 1. *)
val is_ordinal : ty -> bool

val is_numeric : ty -> bool

(** Inclusive value bounds of an ordinal type.
    @raise Invalid_argument on non-ordinal types. *)
val bounds : ty -> int * int

(** Same type, by name equivalence. *)
val equal : ty -> ty -> bool

val signature_equal : signature -> signature -> bool

(** Assignment compatibility (v := e): type equality, subrange/base,
    INTEGER/CARDINAL mixing, CHAR vs length-1 string, string into
    fitting CHAR array, NIL into pointers and procedure types,
    BITSET vs SET OF small range. *)
val assignable : dst:ty -> src:ty -> bool

(** Operand compatibility for binary operators and CASE labels. *)
val compatible : ty -> ty -> bool

(** Actual-to-formal compatibility: VAR requires identity, value follows
    assignability, open arrays accept any array (or string, for CHAR)
    with a compatible element type. *)
val param_compat : formal:param -> actual:ty -> bool

(** VM slots occupied by a value of this type (always 1: values are
    boxed). *)
val size_slots : ty -> int
