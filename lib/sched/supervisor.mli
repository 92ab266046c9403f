(** The Supervisor — task queuing and selection (paper §2.3.2, §2.3.4).

    Ready tasks live in per-priority-class queues; within the two
    code-generation classes the largest task is selected first ("long
    procedures before short").  Tasks gated on an avoided event are
    parked until it occurs.  [prefer] moves a blocked task's resolver to
    the front of its class.

    Engine-neutral and externally synchronized.  Both engines reach it
    through the step interpreter they share ({!Interp}), which owns one
    Supervisor per run; the DES calls it from one thread, the domain
    engine under a mutex. *)

type entry = Fresh of Task.t | Resumed of Task.t * Eff.resumption

val entry_task : entry -> Task.t

type t

(** [~fifo:true] is the scheduling ablation: one FIFO ready queue with
    no class priorities and no longest-first ordering (avoided-event
    gating still applies).  [~perturb] is schedule exploration: [pick]
    selects uniformly at random within the highest-priority non-empty
    class instead of FIFO/longest-first tie-breaking — every perturbed
    run is still a legal Supervisor schedule. *)
val create : ?fifo:bool -> ?perturb:Mcc_util.Prng.t -> unit -> t
val n_ready : t -> int
val n_gated : t -> int

(** Submit a fresh task; parks it if its gate has not occurred. *)
val submit : t -> Task.t -> unit

(** Re-queue a previously blocked task's continuation, ahead of fresh
    work of the same class. *)
val resume : t -> Task.t -> Eff.resumption -> unit

(** An event occurred: release the tasks gated on it. *)
val on_event : t -> Event.t -> unit

(** Move the pending task with this id to the front of its class: a
    blocked task is waiting for it. *)
val prefer : t -> int -> unit

(** Highest-priority ready entry (longest-first within the gen classes),
    or [None]. *)
val pick : t -> entry option

(** Still-parked gated tasks, for deadlock diagnostics:
    [(event id, task names)]. *)
val gated_events : t -> (int * string list) list
