(* The happens-before checker.

   Replays a structured concurrency event log (Mcc_obs.Evlog) captured
   from a DES run and verifies the ordering invariants the paper's
   correctness argument rests on (§2.3.3).  The DES engine is single-
   threaded, so the log's sequence numbers are the true execution order;
   "A happens before B" is simply "A's record precedes B's".  The checks:

   - every observation of a symbol is preceded by its publication
     (a lookup can never see a symbol its declaring task has not yet
     entered);
   - no scope publishes after completing, and no authoritative miss (a
     miss in a *complete* table) is later contradicted by a publication
     to the same scope — the early-publish family of bugs;
   - every DKY block record is matched by a later unblock by the same
     task (no lookup left hanging);
   - every engine-level block is matched by a wake, wakes only follow
     their event's signal, and a gated task never starts before its gate
     is signaled;
   - the instantaneous wait-for graph (blocked task -> expected producer)
     is acyclic at every step — the deadlock detector.

   Recovery invariants (fault injection, ISSUE 3): every retry record is
   paired with a preceding un-consumed crash injection on the same task
   (the engine never redispatches a task that did not crash), and no
   symbol published by a quarantined task is ever observed unless its
   scope still completed (a quarantined stream's partial publishes must
   stay unobservable).  Watchdog re-deliveries emit an ordinary Ev_wake
   after the Watchdog_fire marker, so a recovered dropped wake leaves the
   block/wake pairing clean.

   The checker is a pure function of the log: it never touches the
   compiler, so it can also be exercised on hand-built logs in tests. *)

module Evlog = Mcc_obs.Evlog

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
  | Task_lost of { iface : string; node : int }
  | Task_done_twice of { iface : string; first : int; second : int }

type report = {
  violations : violation list;
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
  n_injects : int;
  n_retries : int;
  n_quarantines : int;
  n_watchdog : int;
  n_fetches : int;
  n_serves : int;
  n_hedges : int;
  n_node_deaths : int;
  n_farm_tasks : int;
  n_farm_done : int;
  n_steals : int;
  n_reshards : int;
}

let violation_to_string = function
  | Observe_before_publish { scope_name; sym; observe_seq; _ } ->
      Printf.sprintf "observe-before-publish: %s seen in %s at #%d with no prior publish" sym
        scope_name observe_seq
  | Publish_after_complete { scope_name; sym; publish_seq; complete_seq; _ } ->
      Printf.sprintf "publish-after-complete: %s published to %s at #%d, scope completed at #%d"
        sym scope_name publish_seq complete_seq
  | Miss_then_publish { scope_name; sym; miss_seq; publish_seq; _ } ->
      Printf.sprintf
        "miss-then-publish: authoritative miss of %s in %s at #%d contradicted by publish at #%d"
        sym scope_name miss_seq publish_seq
  | Unmatched_dky_block { task; scope_name; sym; ev; block_seq } ->
      Printf.sprintf "unmatched DKY block: task#%d blocked on %s in %s (event#%d) at #%d, never unblocked"
        task sym scope_name ev block_seq
  | Unwoken_block { task; ev; ev_name; block_seq } ->
      Printf.sprintf "unwoken block: task#%d blocked on event#%d %s at #%d, never woken" task ev
        ev_name block_seq
  | Wake_before_signal { task; ev; wake_seq } ->
      Printf.sprintf "wake-before-signal: task#%d woken from event#%d at #%d before any signal" task
        ev wake_seq
  | Start_before_gate { task; gate; start_seq } ->
      Printf.sprintf "start-before-gate: gated task#%d started at #%d before event#%d was signaled"
        task start_seq gate
  | Wait_cycle { tasks; seq } ->
      Printf.sprintf "wait cycle at #%d: %s" seq
        (String.concat " -> " (List.map (Printf.sprintf "task#%d") tasks))
  | Retry_without_fault { task; attempt; retry_seq } ->
      Printf.sprintf "retry-without-fault: task#%d retried (attempt %d) at #%d with no prior crash injection"
        task attempt retry_seq
  | Quarantine_observed { scope_name; sym; task; observe_seq; _ } ->
      Printf.sprintf
        "quarantine-observed: %s in %s observed at #%d but its publisher task#%d was quarantined \
         and the scope never completed"
        sym scope_name observe_seq task
  | Serve_without_fetch { node; peer; iface; serve_seq } ->
      Printf.sprintf
        "serve-without-fetch: node#%d served %s to node#%d at #%d with no outstanding fetch" node
        iface peer serve_seq
  | Task_lost { iface; node } ->
      Printf.sprintf "task-lost-on-crash: closure %s (last on node#%d) never completed" iface node
  | Task_done_twice { iface; first; second } ->
      Printf.sprintf "task-done-twice: closure %s completed at #%d and again at #%d" iface first
        second

let check (log : Evlog.record array) : report =
  let violations = ref [] in
  let flag v = violations := v :: !violations in
  (* first publication / completion / authoritative miss, by key *)
  let published : (int * string, int) Hashtbl.t = Hashtbl.create 256 in
  let completed : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let misses : (int * string, int) Hashtbl.t = Hashtbl.create 64 in
  (* outstanding DKY waits: (task, ev) -> stack of (seq, scope_name, sym) *)
  let dky_pending : (int * int, (int * string * string) list) Hashtbl.t = Hashtbl.create 64 in
  (* outstanding engine blocks: task -> (ev, ev_name, seq) *)
  let blocked : (int, int * string * int) Hashtbl.t = Hashtbl.create 64 in
  (* instantaneous wait-for edges: blocked task -> expected producer *)
  let waits : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let signals : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let gates : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* recovery-invariant state *)
  let task_names : (int, string) Hashtbl.t = Hashtbl.create 64 in
  (* un-consumed crash injections, by victim name; each is consumed by
     the retry or quarantine the engine pairs with it *)
  let crash_pending : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let quarantined : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  (* first publisher task per (scope, sym); first observation seq *)
  let publishers : (int * string, int * string) Hashtbl.t = Hashtbl.create 256 in
  let observed : (int * string, int) Hashtbl.t = Hashtbl.create 256 in
  let n_publishes = ref 0
  and n_observes = ref 0
  and n_auth_misses = ref 0
  and n_dky_blocks = ref 0
  and n_dky_unblocks = ref 0
  and n_signals = ref 0
  and n_blocks = ref 0
  and n_wakes = ref 0
  and n_spawned = ref 0
  and n_finished = ref 0
  and n_injects = ref 0
  and n_retries = ref 0
  and n_quarantines = ref 0
  and n_watchdog = ref 0
  and n_fetches = ref 0
  and n_serves = ref 0
  and n_hedges = ref 0
  and n_node_deaths = ref 0
  and n_farm_done = ref 0
  and n_steals = ref 0
  and n_reshards = ref 0 in
  (* farm state: outstanding fetch requests (requester, server, iface) ->
     count; closure -> owning node; closure -> first-done seq *)
  let fetch_pending : (int * int * string, int) Hashtbl.t = Hashtbl.create 64 in
  let closure_owner : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let closure_done : (string, int) Hashtbl.t = Hashtbl.create 64 in
  (* walk the wait-for graph from [start]'s producer; a path back to
     [start] is a deadlock-shaped cycle *)
  let detect_cycle start seq =
    let rec follow path p steps =
      if steps > Hashtbl.length waits + 1 then ()
      else if p = start then flag (Wait_cycle { tasks = List.rev (start :: path); seq })
      else
        match Hashtbl.find_opt waits p with
        | Some next -> follow (p :: path) next (steps + 1)
        | None -> ()
    in
    match Hashtbl.find_opt waits start with
    | Some producer -> follow [ start ] producer 0
    | None -> ()
  in
  Array.iter
    (fun (r : Evlog.record) ->
      match r.Evlog.kind with
      | Evlog.Task_spawn { task; name; gate; _ } ->
          incr n_spawned;
          Hashtbl.replace task_names task name;
          if gate >= 0 then Hashtbl.replace gates task gate
      | Evlog.Task_start { task } -> (
          match Hashtbl.find_opt gates task with
          | Some gate when not (Hashtbl.mem signals gate) ->
              flag (Start_before_gate { task; gate; start_seq = r.Evlog.seq })
          | _ -> ())
      | Evlog.Task_finish _ -> incr n_finished
      | Evlog.Ev_signal { ev; _ } ->
          incr n_signals;
          if not (Hashtbl.mem signals ev) then Hashtbl.replace signals ev r.Evlog.seq
      | Evlog.Ev_block { ev; name; producer } ->
          incr n_blocks;
          Hashtbl.replace blocked r.Evlog.task (ev, name, r.Evlog.seq);
          if producer >= 0 && producer <> r.Evlog.task then begin
            Hashtbl.replace waits r.Evlog.task producer;
            detect_cycle r.Evlog.task r.Evlog.seq
          end
      | Evlog.Ev_wake { ev; task } ->
          incr n_wakes;
          if not (Hashtbl.mem signals ev) then
            flag (Wake_before_signal { task; ev; wake_seq = r.Evlog.seq });
          Hashtbl.remove blocked task;
          Hashtbl.remove waits task
      | Evlog.Gate_release _ -> ()
      | Evlog.Scope_intern _ -> ()
      | Evlog.Publish { scope; scope_name; sym } ->
          incr n_publishes;
          let key = (scope, sym) in
          if not (Hashtbl.mem published key) then Hashtbl.replace published key r.Evlog.seq;
          if not (Hashtbl.mem publishers key) then
            Hashtbl.replace publishers key (r.Evlog.task, scope_name);
          (match Hashtbl.find_opt completed scope with
          | Some complete_seq ->
              flag
                (Publish_after_complete
                   { scope; scope_name; sym; publish_seq = r.Evlog.seq; complete_seq })
          | None -> ());
          (match Hashtbl.find_opt misses key with
          | Some miss_seq ->
              flag (Miss_then_publish { scope; scope_name; sym; miss_seq; publish_seq = r.Evlog.seq })
          | None -> ())
      | Evlog.Complete { scope; _ } ->
          if not (Hashtbl.mem completed scope) then Hashtbl.replace completed scope r.Evlog.seq
      | Evlog.Observe { scope; scope_name; sym; _ } ->
          incr n_observes;
          if not (Hashtbl.mem published (scope, sym)) then
            flag (Observe_before_publish { scope; scope_name; sym; observe_seq = r.Evlog.seq });
          if not (Hashtbl.mem observed (scope, sym)) then
            Hashtbl.replace observed (scope, sym) r.Evlog.seq
      | Evlog.Auth_miss { scope; sym; _ } ->
          incr n_auth_misses;
          let key = (scope, sym) in
          if not (Hashtbl.mem misses key) then Hashtbl.replace misses key r.Evlog.seq
      | Evlog.Dky_block { scope_name; sym; ev; _ } ->
          incr n_dky_blocks;
          let key = (r.Evlog.task, ev) in
          let stack = Option.value ~default:[] (Hashtbl.find_opt dky_pending key) in
          Hashtbl.replace dky_pending key ((r.Evlog.seq, scope_name, sym) :: stack)
      | Evlog.Dky_unblock { scope_name; sym; ev; _ } -> (
          incr n_dky_unblocks;
          let key = (r.Evlog.task, ev) in
          match Hashtbl.find_opt dky_pending key with
          | Some (_ :: rest) ->
              if rest = [] then Hashtbl.remove dky_pending key
              else Hashtbl.replace dky_pending key rest
          | Some [] | None ->
              (* an unblock with no outstanding block is itself unpaired *)
              flag
                (Unmatched_dky_block
                   { task = r.Evlog.task; scope_name; sym; ev; block_seq = r.Evlog.seq }))
      | Evlog.Fault_inject { fault; victim } ->
          incr n_injects;
          if fault = "task-crash" then
            Hashtbl.replace crash_pending victim
              (1 + Option.value ~default:0 (Hashtbl.find_opt crash_pending victim))
      | Evlog.Task_retry { task; attempt } -> (
          incr n_retries;
          let name = Option.value ~default:"" (Hashtbl.find_opt task_names task) in
          match Hashtbl.find_opt crash_pending name with
          | Some n when n > 0 -> Hashtbl.replace crash_pending name (n - 1)
          | _ -> flag (Retry_without_fault { task; attempt; retry_seq = r.Evlog.seq }))
      | Evlog.Task_quarantine { task; name } ->
          incr n_quarantines;
          Hashtbl.replace quarantined task ();
          (* the quarantine consumes the crash injection that exhausted
             the retries (or the resume-point crash) *)
          (match Hashtbl.find_opt crash_pending name with
          | Some n when n > 0 -> Hashtbl.replace crash_pending name (n - 1)
          | _ -> ())
      | Evlog.Watchdog_fire _ -> incr n_watchdog
      (* compile-server job lifecycle: no intra-compile ordering to
         check — the server suspends emission around engine runs *)
      | Evlog.Job_enqueue _ | Evlog.Job_admit _ | Evlog.Job_shed _ | Evlog.Job_batch _
      | Evlog.Job_done _ -> ()
      (* farm lifecycle: every serve must consume an outstanding fetch
         on the same (requester, server, interface) link, and every
         closure ever placed on a node must complete exactly once *)
      | Evlog.Rpc_fetch { node; peer; iface; _ } ->
          incr n_fetches;
          let key = (node, peer, iface) in
          Hashtbl.replace fetch_pending key
            (1 + Option.value ~default:0 (Hashtbl.find_opt fetch_pending key))
      | Evlog.Rpc_serve { node; peer; iface } -> (
          incr n_serves;
          let key = (peer, node, iface) in
          match Hashtbl.find_opt fetch_pending key with
          | Some n when n > 0 -> Hashtbl.replace fetch_pending key (n - 1)
          | _ -> flag (Serve_without_fetch { node; peer; iface; serve_seq = r.Evlog.seq }))
      | Evlog.Rpc_hedge { node; replica; iface } ->
          (* the hedged request is itself a fetch to the replica *)
          incr n_hedges;
          let key = (node, replica, iface) in
          Hashtbl.replace fetch_pending key
            (1 + Option.value ~default:0 (Hashtbl.find_opt fetch_pending key))
      | Evlog.Node_dead { node } ->
          incr n_node_deaths;
          ignore node
      | Evlog.Farm_assign { node; iface } -> Hashtbl.replace closure_owner iface node
      | Evlog.Farm_reshard { node; iface } ->
          incr n_reshards;
          Hashtbl.replace closure_owner iface node
      | Evlog.Farm_steal { node; iface; _ } ->
          incr n_steals;
          Hashtbl.replace closure_owner iface node
      | Evlog.Farm_task_done { iface; _ } -> (
          incr n_farm_done;
          match Hashtbl.find_opt closure_done iface with
          | Some first -> flag (Task_done_twice { iface; first; second = r.Evlog.seq })
          | None -> Hashtbl.replace closure_done iface r.Evlog.seq)
      | Evlog.Node_start _ | Evlog.Node_detect _ | Evlog.Heartbeat _ | Evlog.Rpc_timeout _
      | Evlog.Farm_replicate _ | Evlog.Net_partition _ | Evlog.Net_heal
      (* trace spans annotate the same lifecycle this checker derives
         its orderings from; they carry no extra happens-before edges *)
      | Evlog.Span_start _ | Evlog.Span_end _ -> ())
    log;
  (* no-task-lost-on-crash: every closure ever assigned (initially, by
     steal or by re-shard) completed *)
  Hashtbl.iter
    (fun iface node ->
      if not (Hashtbl.mem closure_done iface) then flag (Task_lost { iface; node }))
    closure_owner;
  (* a quarantined stream's partial publishes must never have been
     observed — unless the scope completed anyway (its data is whole) *)
  Hashtbl.iter
    (fun ((scope, sym) as key) (task, scope_name) ->
      if Hashtbl.mem quarantined task && not (Hashtbl.mem completed scope) then
        match Hashtbl.find_opt observed key with
        | Some observe_seq -> flag (Quarantine_observed { scope; scope_name; sym; task; observe_seq })
        | None -> ())
    publishers;
  Hashtbl.iter
    (fun (task, ev) stack ->
      List.iter
        (fun (block_seq, scope_name, sym) ->
          flag (Unmatched_dky_block { task; scope_name; sym; ev; block_seq }))
        stack)
    dky_pending;
  Hashtbl.iter
    (fun task (ev, ev_name, block_seq) -> flag (Unwoken_block { task; ev; ev_name; block_seq }))
    blocked;
  {
    violations =
      List.sort
        (fun a b -> compare (violation_to_string a) (violation_to_string b))
        !violations;
    n_records = Array.length log;
    n_publishes = !n_publishes;
    n_observes = !n_observes;
    n_auth_misses = !n_auth_misses;
    n_dky_blocks = !n_dky_blocks;
    n_dky_unblocks = !n_dky_unblocks;
    n_signals = !n_signals;
    n_blocks = !n_blocks;
    n_wakes = !n_wakes;
    n_spawned = !n_spawned;
    n_finished = !n_finished;
    n_injects = !n_injects;
    n_retries = !n_retries;
    n_quarantines = !n_quarantines;
    n_watchdog = !n_watchdog;
    n_fetches = !n_fetches;
    n_serves = !n_serves;
    n_hedges = !n_hedges;
    n_node_deaths = !n_node_deaths;
    n_farm_tasks = Hashtbl.length closure_owner;
    n_farm_done = !n_farm_done;
    n_steals = !n_steals;
    n_reshards = !n_reshards;
  }

let ok r = r.violations = []

let summary r =
  let faults =
    if r.n_injects = 0 && r.n_retries = 0 && r.n_quarantines = 0 && r.n_watchdog = 0 then ""
    else
      Printf.sprintf ", %d inject/%d retry/%d quarantine/%d watchdog" r.n_injects r.n_retries
        r.n_quarantines r.n_watchdog
  in
  let faults =
    if r.n_farm_tasks = 0 && r.n_fetches = 0 then faults
    else
      faults
      ^ Printf.sprintf ", farm %d closure/%d done, %d fetch/%d serve/%d hedge, %d steal/%d \
                        reshard/%d dead"
          r.n_farm_tasks r.n_farm_done r.n_fetches r.n_serves r.n_hedges r.n_steals r.n_reshards
          r.n_node_deaths
  in
  Printf.sprintf
    "%d records: %d publish, %d observe, %d auth-miss, %d DKY block/%d unblock, %d signal, %d \
     block/%d wake, %d spawn/%d finish%s — %d violation%s"
    r.n_records r.n_publishes r.n_observes r.n_auth_misses r.n_dky_blocks r.n_dky_unblocks
    r.n_signals r.n_blocks r.n_wakes r.n_spawned r.n_finished faults
    (List.length r.violations)
    (if List.length r.violations = 1 then "" else "s")
