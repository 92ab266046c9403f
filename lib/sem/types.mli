(** The compiler's type representations and compatibility rules.

    Structured types (enumerations, arrays, records, pointers, sets)
    carry unique ids and obey Modula-2 name equivalence; basic types and
    subranges compare structurally.  Ids never reach generated code, so
    concurrent allocation order cannot perturb compiler output. *)

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

and enum_info = { euid : int; ename : string; elems : string array }
and arr_info = { auid : int; index : ty; lo : int; hi : int; elem : ty }
and field = { fty : ty; fslot : int }
and rec_info = { ruid : int; rname : string; fields : (string * field) list }
and ptr_info = { puid : int; pname : string; mutable target : ty }
and set_info = { suid : int; sbase : ty; slo : int; shi : int }
and param = { mode_var : bool; pty : ty }
and signature = { params : param list; result : ty option }

val fresh_uid : unit -> int

(** Ensure future {!fresh_uid} results exceed [floor].  Called when
    loading interface artifacts whose uids were allocated by a previous
    process, so fresh types cannot collide with unmarshalled ones. *)
val bump_uid_floor : int -> unit

(** The largest uid allocated so far (or ensured by {!bump_uid_floor}):
    the floor a saved cache file records for every type it holds. *)
val uid_floor : unit -> int

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
