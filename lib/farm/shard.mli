(** Sharding definition-module closures across farm nodes, plus the
    exactly-once task tracker the coordinator drives the farm with.

    The tracker is the single claim point for work: a closure moves
    Pending -> Running only through {!next} (whether claimed from the
    node's own queue or stolen from a peer), Running -> Done only
    through {!complete} by the claim holder, and a dead node's
    unfinished closures back to Pending only through {!reshard}.  Done
    never reverts, so a task can neither be lost nor finished twice —
    the invariants test_farm.ml's qcheck property exercises. *)

type policy =
  | Hash  (** stable content hash of the module name, mod node count *)
  | Size  (** size-balanced: LPT greedy over definition source bytes *)

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

(** Stable FNV-1a hash of a module name (not [Hashtbl.hash], which may
    vary across compiler versions and would break byte-identical
    same-seed runs). *)
val stable_hash : string -> int

(** Place [(iface, source_bytes)] pairs onto [nodes] nodes; returns
    [(iface, node)] in input order. *)
val assign : policy -> nodes:int -> (string * int) list -> (string * int) list

type state = Pending | Running of int | Done of int

type tracker

(** [create ~nodes ~assignment ~topo ~deps]: [topo] lists every sharded
    closure in dependency order, [deps name] its direct definition
    imports (non-sharded names are ignored), [assignment] the initial
    placement from {!assign}. *)
val create :
  nodes:int ->
  assignment:(string * int) list ->
  topo:string list ->
  deps:(string -> string list) ->
  tracker

val n_tasks : tracker -> int
val name_of : tracker -> int -> string

(** All direct imports Done? *)
val ready : tracker -> int -> bool

val pending_count : tracker -> int -> int
val all_done : tracker -> bool

(** Closures not yet Done. *)
val remaining : tracker -> int

(** Claim the next runnable closure for [node]: the front-most ready
    task of its own queue, or — with [steal] — the back-most ready task
    of the fullest peer for which [may_steal_from] holds.  The claim is
    the atomic Pending -> Running transition. *)
val next :
  tracker ->
  node:int ->
  steal:bool ->
  may_steal_from:(int -> bool) ->
  [ `Own of string | `Stolen of string * int ] option

(** Running -> Done, accepted only from the claim holder.  Returns
    [false] for stale completions (the claim was re-sharded away). *)
val complete : tracker -> node:int -> string -> bool

(** Which node completed [iface], if any. *)
val doer : tracker -> string -> int option

(** Re-queue a dead node's Pending and Running closures round-robin on
    [survivors]; returns the moves [(iface, new_node)]. *)
val reshard : tracker -> dead:int -> survivors:int list -> (string * int) list
