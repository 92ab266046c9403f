(** The synthetic evaluation suite: 37 programs tuned to the paper's
    Table 1 (sizes, sequential compile times, interface counts and
    nesting depths, procedure and stream counts, and the §4.2 quartile
    populations), plus the mechanically generated best-case module. *)

open Mcc_core

val n_programs : int

(** The shape of each suite entry, in rank order. *)
val shapes : Gen.shape list

(** Generate suite program [rank], 0-based, afresh on every call: a
    caller that asks for the same program again keeps its own copy.
    [?seed] perturbs every shape's generator seed to produce a fresh but
    equally shaped suite; [seed = 0] (the default) is the canonical
    suite. *)
val program : ?seed:int -> int -> Source_store.t

(** All 37 programs. *)
val all : ?seed:int -> unit -> Source_store.t list

(** Suite entry [rank]'s target 1-processor compile time, in paper-style
    seconds (the Table 1 ramp the shapes are tuned to). *)
val target_seconds : int -> float

(** Ranks whose target 1-processor compile time is at most [seconds] —
    the compile-server traffic generator's default program pool.
    Decided from the shape targets alone; no program is generated. *)
val ranks_under : float -> int list

(** Synth.mod (paper §4.2): many same-sized procedures whose bodies
    reference only their own locals and builtins, so compilation
    "generates ample parallel work for the compiler and never incurs a
    DKY blockage". *)
val synth_best : ?n_procs:int -> ?stmts:int -> unit -> Source_store.t
