(** Identifier-lookup statistics: the instrumentation behind the paper's
    Table 2.  Every lookup is classified by identifier kind, how it was
    found, the scope class it was found in, and the completeness of that
    scope at the successful probe; plus never-found, DKY-blockage and
    duplicate-search counters.  Each counter is an atomic in a flat
    array indexed by its row, so recording takes no lock and hashes
    nothing; only the used-slice set is mutex-protected.  Mergeable
    across a whole suite run. *)

type kind = Simple | Qualified
type found_when = FirstTry | Search | AfterDKY

type scope_class =
  | CSelf  (** the searching stream's own scope *)
  | COther  (** an explicitly designated scope: qualified names, FROM-imported aliases *)
  | COuter  (** found chaining outward through the scope parentage *)
  | CWith  (** a WITH-statement record scope *)
  | CBuiltin

type completeness = Complete | Incomplete

type t

val create : unit -> t
val record : t -> kind:kind -> found:found_when -> scope:scope_class -> compl:completeness -> unit
val record_never : t -> kind:kind -> unit

(** A lookup incurred a DKY wait. *)
val record_dky : t -> unit

(** A skeptical/optimistic re-search after a DKY wait (the duplicate
    search Figure 6 pays for). *)
val record_duplicate : t -> unit

val record_probe : t -> unit

(** A successful lookup hit an exported declaration of imported
    definition module [import]: accumulate [(import, name)] into the
    compilation's used-slice set — the fine-grained dependency record
    slice-level invalidation keys on. *)
val record_use : t -> import:string -> name:string -> unit

(** The used-slice set: [(imported module, sorted names looked up
    there)], sorted by module name.  Deterministic. *)
val used_slices : t -> (string * string list) list

(** Accumulate [src] into [into]. *)
val merge : into:t -> t -> unit

val get : t -> kind:kind -> found:found_when -> scope:scope_class -> compl:completeness -> int
val never : t -> kind:kind -> int
val dky_blocks : t -> int
val duplicate_searches : t -> int
val total_probes : t -> int

(** All lookups of a kind, including never-found. *)
val total : t -> kind:kind -> int

val found_name : found_when -> string
val scope_name : scope_class -> string
val compl_name : completeness -> string

(** Populated rows in the paper's row order:
    [(found, scope, completeness, count)]. *)
val rows : t -> kind:kind -> (found_when * scope_class * completeness * int) list
