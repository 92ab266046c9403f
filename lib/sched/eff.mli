(** The effect interface between compiler tasks and execution engines.

    Compiler code is direct-style OCaml that occasionally performs one of
    four effects — charge work, wait on an event, signal an event, spawn
    a task.  An execution engine drives task bodies as {!step}s: the DES
    interprets [Work] as virtual time on a simulated processor, the
    domain engine runs on real parallelism, and both hand [Wait],
    [Signal] and [Spawn] to the step interpreter they share
    ({!Interp}), which parks and wakes continuations.  Outside any
    engine ("direct mode", the sequential compiler and unit tests) work
    accumulates into a running total and waits must already be
    satisfied.  The mode, the accumulator, the total and the
    accounting switch belong to the calling domain's installed run
    ({!Mcc_obs.Evlog.run}).

    Work charges are batched to [Costs.quantum] so effect-handling
    overhead stays negligible while event timing keeps fine virtual
    resolution; every scheduling operation flushes the accumulator
    first. *)

type _ Effect.t +=
  | Work : int -> unit Effect.t
  | Wait : Event.t -> unit Effect.t
  | Signal : Event.t -> unit Effect.t
  | Spawn : Task.t -> unit Effect.t

(** Raised when [wait] is called on an unoccurred event outside any
    engine: the sequential compiler's processing order should make every
    wait a no-op, so this indicates a driver bug. *)
exception Deadlock_in_direct_mode of string

(** The installed run's execution mode ({!Mcc_obs.Evlog.mode}). *)
type mode = Mcc_obs.Evlog.mode = Direct | Engine

(** Inert: nothing in the library reads or assigns it; the execution
    mode is a field of the installed run, set by {!within}.  It stays
    exported only because the wall-clock benchmark's sequential tracer
    assigns it, outside every run, where the mode already is [Direct],
    so the assignment changes nothing. *)
val mode : mode ref

(** [within ?obs ?accounting m f] runs [f] as a fresh run in mode [m]
    on the calling domain ({!Mcc_obs.Evlog.within}): nothing charged
    yet, so no earlier run's leftover work reaches this one.  Engine
    entry points and the sequential compiler start their runs this
    way. *)
val within : ?obs:Mcc_obs.Evlog.ctx -> ?accounting:bool -> mode -> (unit -> 'a) -> 'a

(** The installed run's direct-mode total: the sequential compiler's
    virtual execution time. *)
val get_direct_total : unit -> float

(** Charge [n] work units (batched). *)
val work : int -> unit

(** [work_units n] charges [n] units flush-exactly: it performs the
    same [Work] effects, with the same sizes, as [n] calls of [work 1],
    and leaves the same residue in the accumulator.  A caller that used
    to charge one unit per step (the lexer, per character) can charge a
    whole run of steps in one call without moving any virtual time, as
    long as it performs no other effect in between. *)
val work_units : int -> unit

(** Flush the accumulator (performs [Work] under an engine). *)
val flush : unit -> unit

(** Wait for [ev]; immediate if it has occurred. *)
val wait : Event.t -> unit

(** Signal [ev], waking its waiters (under an engine). *)
val signal : Event.t -> unit

(** Submit a task to the running engine's Supervisor. *)
val spawn : Task.t -> unit

(** {1 Stepping — how engines drive task bodies} *)

(** One scheduler-visible step of a task.  [Finished] carries residual
    unflushed work units. *)
type step =
  | Finished of int
  | Failed of exn * Printexc.raw_backtrace
  | Worked of int * resumption
  | Blocked of Event.t * resumption
  | Signaled of Event.t * resumption
  | Spawned of Task.t * resumption

and resumption = (unit, step) Effect.Deep.continuation

(** Run a task body until its first step.  The installed deep handler
    stays in force for the task's whole lifetime, even when the
    continuation is resumed later or on a different domain. *)
val start : (unit -> unit) -> step

(** Resume a suspended task until its next step. *)
val resume : resumption -> step

(** Abort a suspended task by raising [e] at its suspension point; the
    body unwinds (cleanups run) and the handler yields [Failed].  Used
    by the DES engine's fault injection. *)
val discontinue : resumption -> exn -> step
