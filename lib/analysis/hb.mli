(** The happens-before checker.

    Replays a structured concurrency event log ({!Mcc_obs.Evlog})
    captured from a DES run and verifies the ordering invariants of
    paper §2.3.3: observations follow publications, scopes never publish
    after completing (nor contradict an authoritative miss), DKY blocks
    pair with unblocks, engine blocks pair with post-signal wakes, gated
    tasks start after their gates, and the instantaneous wait-for graph
    stays acyclic (the deadlock detector).

    Recovery invariants (fault injection): every [Task_retry] pairs with
    a preceding un-consumed crash [Fault_inject] on the same task, and
    no symbol published by a quarantined task is observed unless its
    scope still completed.

    Pure: a function of the log only, so it can be exercised on
    hand-built logs in tests. *)

type violation =
  | Observe_before_publish of { scope : int; scope_name : string; sym : string; observe_seq : int }
  | Publish_after_complete of {
      scope : int;
      scope_name : string;
      sym : string;
      publish_seq : int;
      complete_seq : int;
    }
  | Miss_then_publish of {
      scope : int;
      scope_name : string;
      sym : string;
      miss_seq : int;
      publish_seq : int;
    }
  | Unmatched_dky_block of { task : int; scope_name : string; sym : string; ev : int; block_seq : int }
  | Unwoken_block of { task : int; ev : int; ev_name : string; block_seq : int }
  | Wake_before_signal of { task : int; ev : int; wake_seq : int }
  | Start_before_gate of { task : int; gate : int; start_seq : int }
  | Wait_cycle of { tasks : int list; seq : int }
  | Retry_without_fault of { task : int; attempt : int; retry_seq : int }
  | Quarantine_observed of {
      scope : int;
      scope_name : string;
      sym : string;
      task : int;
      observe_seq : int;
    }
  | Serve_without_fetch of { node : int; peer : int; iface : string; serve_seq : int }
      (** a farm node delivered an artifact nobody had requested on that link *)
  | Task_lost of { iface : string; node : int }
      (** a sharded closure (last placed on [node]) never completed —
          the no-task-lost-on-crash invariant *)
  | Task_done_twice of { iface : string; first : int; second : int }
      (** a closure completed on two nodes — stealing or re-sharding duplicated work *)

type report = {
  violations : violation list;  (** sorted by rendering; empty = clean *)
  n_records : int;
  n_publishes : int;
  n_observes : int;
  n_auth_misses : int;
  n_dky_blocks : int;
  n_dky_unblocks : int;
  n_signals : int;
  n_blocks : int;
  n_wakes : int;
  n_spawned : int;
  n_finished : int;
  n_injects : int;  (** [Fault_inject] records *)
  n_retries : int;  (** [Task_retry] records *)
  n_quarantines : int;  (** [Task_quarantine] records *)
  n_watchdog : int;  (** [Watchdog_fire] records *)
  n_fetches : int;  (** [Rpc_fetch] records *)
  n_serves : int;  (** [Rpc_serve] records *)
  n_hedges : int;  (** [Rpc_hedge] records *)
  n_node_deaths : int;  (** [Node_dead] records *)
  n_farm_tasks : int;  (** distinct sharded closures seen *)
  n_farm_done : int;  (** [Farm_task_done] records *)
  n_steals : int;  (** [Farm_steal] records *)
  n_reshards : int;  (** [Farm_reshard] records *)
}

val check : Mcc_obs.Evlog.record array -> report
val ok : report -> bool
val violation_to_string : violation -> string

(** One-line counters + violation count. *)
val summary : report -> string
