(** Events — the concurrency mechanism of the compiler (paper §2.3.1).

    "An event is simply something that either has or has not occurred.
    A task waits on an event if and only if it hasn't occurred."

    Events are engine-neutral data: the step interpreter both engines
    share ({!Interp}) keeps the waiter queues, keyed by [id].  [occurred] is monotonic and atomic. *)

(** The paper's three event categories (§2.3.3):
    - [Avoided]: the Supervisor refuses to start a gated task until the
      event occurs (the task would block almost immediately);
    - [Handled]: a waiting task is suspended and its processor is given
      other work, preferring the event's producer;
    - [Barrier]: the waiting processor stays bound to the task until the
      event occurs (token streams, where waits are short and producers
      never block). *)
type kind = Avoided | Handled | Barrier

type t = {
  id : int;  (** from the installed run's counter ({!Mcc_obs.Evlog.next_event}) *)
  name : string;
  kind : kind;
  occurred_flag : bool Atomic.t;
  mutable producer : int;  (** id of the task expected to signal; -1 unknown *)
}

val create : ?producer:int -> kind:kind -> string -> t
val occurred : t -> bool

(** Record which task will signal this event so the Supervisor can prefer
    it when someone blocks (paper §2.3.4). *)
val set_producer : t -> int -> unit

(** Direct marking — used by engines under their own synchronization and
    by the sequential compiler, where no scheduler exists.  Inside an
    engine-run task use {!Eff.signal} instead, which wakes waiters. *)
val mark : t -> unit

val pp : Format.formatter -> t -> unit
