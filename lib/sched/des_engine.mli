(** The discrete-event simulated multiprocessor.

    Runs real compiler tasks on [procs] simulated processors, advancing a
    virtual clock from the work units the tasks charge — the stand-in
    for the paper's 8-CVax DEC Firefly.  Deterministic: ties break by
    insertion order, so the same inputs give bit-identical traces.

    Scheduling follows the Supervisors approach (paper §2.3.2), through
    the step interpreter shared with the domain engine ({!Interp}):
    handled waits suspend the task and free the processor (preferring
    the event's producer next); barrier waits keep the processor bound;
    avoided events gate task start.  A work segment started with [b]
    busy processors is stretched by [1 + beta*(b-1)^2] (memory-bus
    saturation, §4.1). *)

type outcome = Interp.outcome = Completed | Deadlocked of string list

type result = {
  end_time : float;  (** virtual work units *)
  end_seconds : float;  (** [end_time] scaled by {!Costs.seconds_per_unit} *)
  outcome : outcome;
  tasks_run : int;
  failures : (string * exn) list;  (** tasks that raised, with their exception *)
  handled_blocks : int;
      (** suspensions on handled events of any kind; symbol-table DKY
          blockages specifically are counted by [Mcc_sem.Lookup_stats] *)
  injected : int;  (** faults fired by the armed {!Fault} plan during the run *)
  retries : int;  (** crashed-at-start tasks redispatched after backoff *)
  quarantined : string list;  (** tasks permanently failed by injection *)
  stalls : int;  (** injected stalled-worker delays *)
  watchdog_fires : int;  (** occurred events whose lost wakes were re-delivered *)
  recovered_wakes : int;  (** parked tasks the watchdog woke *)
}

(** [run ~beta ~procs tasks] simulates the initial task set (plus
    everything it spawns) to quiescence.  [beta] defaults to
    {!Costs.bus_beta}; [~fifo:true] disables the Supervisor's priority
    scheduling (ablation of paper §2.3.4).  [~perturb:seed] randomizes
    ready-queue tie-breaking with a {!Mcc_util.Prng} seeded from [seed]
    — every perturbed run is still a legal Supervisor schedule (used by
    the schedule explorer; see {!Supervisor.create}).

    The simulation is a fresh run ({!Eff.within}) in the enclosing
    run's context and plan.  When that context records the event log,
    each stretch of processor activity becomes a [Busy] record there,
    the only recording of what ran when ({!Trace.of_log} reads it
    back).  When a {!Fault} plan is armed, dispatches
    consult it: a crash before a task's body ran retries after a
    virtual-time backoff (then quarantines); a crash at a resume point
    quarantines immediately (partial effects make re-runs unsafe);
    dropped wakes leave waiters parked for the virtual-time stall
    watchdog, which re-delivers the lost wake-ups at quiescence instead
    of reporting a deadlock. *)
val run : ?beta:float -> ?fifo:bool -> ?perturb:int -> procs:int -> Task.t list -> result
