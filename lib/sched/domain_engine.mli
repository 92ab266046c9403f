(** The shared-memory execution engine: real parallelism on OCaml
    domains — the analogue of the paper's Topaz threads on the Firefly.

    The same effect-based tasks the DES simulates execute here on
    [domains] workers, which drive the step interpreter shared with the
    DES ({!Interp}) under one mutex.  A blocked task's continuation
    parks on the awaited event and the worker takes other work;
    continuations migrate freely between domains (the capability the
    paper's Topaz threads lacked).  Each worker, the calling domain's
    included, enters a fresh run of its own in mode [Engine] with work
    accounting off — real time is real — in a context that records
    nothing ({!Mcc_obs.Evlog.unlogged}) but draws its ids from the
    enclosing counters, so an event the tasks create cannot share an id
    with one they were given.  No two domains share a run record. *)

type outcome = Interp.outcome = Completed | Deadlocked of string list

type result = {
  wall_seconds : float;  (** elapsed, on the monotonic clock *)
  outcome : outcome;
  tasks_run : int;
  failures : (string * exn) list;
}

(** [run ~domains tasks] executes the initial task set (plus everything
    it spawns) to quiescence on [domains] worker domains. *)
val run : domains:int -> Task.t list -> result
