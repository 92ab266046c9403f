(** The step interpreter both engines share: the Supervisors rules of
    paper §2.3.2–§2.3.4 as transitions over one {!Supervisor}.

    A task that blocks on an unoccurred event parks on it and the
    event's producer is preferred; a signal releases the tasks gated on
    the event and requeues its parked waiters ahead of fresh work;
    spawned tasks are queued.  Each transition logs itself to the
    installed run's event log and metrics, when its context keeps them.
    The DES calls these from one thread, the domain engine under its
    mutex; time and processors stay each engine's own. *)

type outcome =
  | Completed
  | Deadlocked of string list  (** tasks still parked or gated at quiescence *)

type t = private {
  sup : Supervisor.t;
  waiting : (int, (Task.t * Eff.resumption) list) Hashtbl.t;  (** parked, by event id *)
  events_seen : (int, Event.t) Hashtbl.t;  (** every event a task blocked on, by id *)
  mutable n_finished : int;
  mutable handled_blocks : int;  (** parks on unoccurred events *)
  mutable failures : (string * exn) list;  (** newest first *)
}

val create : Supervisor.t -> t

(** Log [Task_spawn], then submit the task. *)
val spawn : t -> Task.t -> unit

(** The task blocks on the unoccurred event: remember the event, log
    [Ev_block], count the block, mark the task [Blocked]. *)
val block : t -> Task.t -> Event.t -> unit

(** {!block}, then park the continuation on the event and prefer its
    producer (§2.3.4). *)
val park : t -> Task.t -> Event.t -> Eff.resumption -> unit

(** Requeue everything parked on an event id, logging [Ev_wake] for
    each task after [on_wake] sees it. *)
val wake : ?on_wake:(Task.t -> unit) -> t -> int -> unit

(** [false] if the event had already occurred.  Otherwise mark it, log
    [Ev_signal], release the tasks gated on it, wake its waiters unless
    [dropped ev] (asked on every such signal), and return [true]. *)
val signal : ?dropped:(Event.t -> bool) -> t -> Event.t -> bool

(** The task ran to completion: log [Task_finish], count it, mark it
    [Done]. *)
val finish : t -> Task.t -> unit

(** The task raised: record the failure, then {!finish}. *)
val fail : t -> Task.t -> exn -> unit

(** At quiescence, [Deadlocked] with every parked waiter, each of the
    engine's own [barriers] waiters (event id, task) and every gated
    task, sorted, named with its event and expected producer. *)
val outcome : ?barriers:(int * Task.t) list -> t -> outcome
