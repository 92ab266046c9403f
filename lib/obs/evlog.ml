(* The structured concurrency event log.

   A single, globally ordered record stream of every synchronization-
   relevant action the compiler performs while running on the DES engine:
   symbol publishes, scope completions, DKY blocks/unblocks, event
   signal/block/wake, gated-task releases, task spawn/start/finish.  The
   happens-before checker ([Mcc_analysis.Hb]) replays this log to verify
   the DKY ordering invariants the paper's correctness argument (§2.3.3)
   rests on, across many perturbed schedules; the telemetry layer
   ([Span], [Critpath]) reconstructs per-task timelines from the same
   stream.

   The log lives here, at the bottom of the dependency stack, so that
   the scheduler ([Mcc_sched.Des_engine], [Mcc_sched.Supervisor]), the
   symbol tables ([Mcc_sem.Symtab], [Mcc_sem.Modreg]) and the telemetry
   consumers in this library can all reach it without a dependency
   cycle.

   Every record carries the virtual time at which it was appended: the
   engine stamps the clock with [set_time] at each agenda dispatch, and
   [emit] asserts that stamps never regress — the agenda pops in
   nondecreasing time order, so a regression is an engine bug, not a
   legal schedule.

   All of one run's observation state — the log with its clock, floor
   and current task, the [Metrics] registry and the [Trace_ctx] span
   counter — is one [ctx] value.  A run installs its own context with
   [within]; emitters write to whichever context is installed, so a
   nested run never touches its encloser's log, and nesting costs one
   save/restore of the slot.  A context records nothing unless it was
   made with [~log] (or [~metrics]), and every emission site is guarded
   by [enabled ()] *before* the record is allocated, so an unobserved
   compile performs no logging work at all — and no record ever charges
   [Eff.work], so even a captured run's virtual timings are identical to
   an uncaptured one.  The log is only meaningful under the single-
   threaded DES engine (the domain engine runs in an empty context):
   records are appended in true execution order, which is exactly the
   total order the checker needs. *)

type kind =
  | Task_spawn of {
      task : int;
      name : string;
      cls : string; (* Task.cls_name of the spawned task *)
      gate : int (* event id; -1 ungated *);
    }
  | Task_start of { task : int }
  | Task_finish of { task : int }
  | Ev_signal of { ev : int; name : string }
  | Ev_block of { ev : int; name : string; producer : int (* task id; -1 unknown *) }
  | Ev_wake of { ev : int; task : int (* the woken task *) }
  | Gate_release of { ev : int; task : int (* the released gated task *) }
  | Scope_intern of { scope : int; name : string }
  | Publish of { scope : int; scope_name : string; sym : string }
  | Complete of { scope : int; scope_name : string }
  | Observe of { scope : int; scope_name : string; sym : string; complete : bool }
  | Auth_miss of { scope : int; scope_name : string; sym : string }
      (* a miss in a *complete* table: authoritative — the symbol must
         never be published to this scope afterwards *)
  | Dky_block of { scope : int; scope_name : string; sym : string; ev : int }
  | Dky_unblock of { scope : int; scope_name : string; sym : string; ev : int }
  | Fault_inject of { fault : string; victim : string }
      (* an armed fault plan fired at an injection site *)
  | Task_retry of { task : int; attempt : int }
      (* a crashed-at-start task redispatched after virtual-time backoff *)
  | Task_quarantine of { task : int; name : string }
      (* retries exhausted (or unsafe): the task is permanently failed *)
  | Watchdog_fire of { ev : int; task : int }
      (* the stall watchdog re-delivered a lost wake for [task] *)
  (* Compile-server lifecycle ([Mcc_serve]): [job] is the server-wide
     job id, [session] the submitting client.  Server captures stamp
     the clock with the server's virtual arrival/completion times. *)
  | Job_enqueue of { job : int; session : string }
  | Job_admit of { job : int; session : string }
  | Job_shed of { job : int; session : string }
      (* admission rejected the job (queue full): it is never served *)
  | Job_batch of { job : int; leader : int; size : int }
      (* the job rides leader's batch (shared interface closure) *)
  | Job_done of { job : int; warm : bool }
      (* served; [warm] = answered from the shared module memo *)
  (* Build-farm lifecycle ([Mcc_farm]): one record stream for the whole
     multi-node run, stamped with the farm's virtual clock.  [node] is
     the acting node; RPC records carry both ends of the link. *)
  | Node_start of { node : int; procs : int }
  | Node_dead of { node : int } (* a node-crash fault fired at a heartbeat *)
  | Node_detect of { node : int }
      (* the coordinator noticed the missed heartbeats and re-shards *)
  | Heartbeat of { node : int }
  | Rpc_fetch of { node : int; peer : int; iface : string; attempt : int }
      (* [node] asks [peer] for an interface artifact; attempt 1 = first try *)
  | Rpc_timeout of { node : int; peer : int; iface : string; attempt : int }
      (* the request (or its reply) was lost; the requester backs off *)
  | Rpc_hedge of { node : int; replica : int; iface : string }
      (* the primary is late: a hedged fetch goes to the replica *)
  | Rpc_serve of { node : int; peer : int; iface : string }
      (* [node] delivered the artifact to [peer] (digest-verified) *)
  | Farm_assign of { node : int; iface : string } (* sharding placed the closure *)
  | Farm_steal of { node : int; victim : int; iface : string }
      (* an idle node stole a runnable closure from [victim]'s queue *)
  | Farm_reshard of { node : int; iface : string }
      (* a dead node's unfinished closure, reassigned to [node] *)
  | Farm_task_done of { node : int; iface : string }
  | Farm_replicate of { node : int; replica : int; iface : string }
      (* the freshly built artifact was pushed to its replica *)
  | Net_partition of { spec : string } (* the network split ("even|odd") *)
  | Net_heal
  (* Distributed-tracing spans ([Trace_ctx] ids): serve and farm runs
     bracket every unit of a request's life — queue, service, probe,
     compile, fetch, compute — with a Span_start/Span_end pair.
     [Dtrace] assembles the pairs (plus captured inner-engine logs)
     into the per-request span forest. *)
  | Span_start of {
      span : int; (* [Trace_ctx.fresh] id, unique within the capture *)
      parent : int; (* owning span id; -1 = a trace root *)
      trace : string; (* deterministic trace id ([Trace_ctx.trace_id]) *)
      name : string; (* display name, e.g. "job#3" or "fetch:M04" *)
      kind : string; (* tiling/annotation class: "job", "queue", ... *)
      node : int; (* acting farm node; -1 = not node-bound *)
    }
  | Span_end of { span : int; status : string (* "ok", "shed", "deadline", ... *) }

type record = {
  seq : int;
  time : float; (* virtual work units at append *)
  task : int (* emitting task; -1 scheduler *);
  kind : kind;
}

module Vec = Mcc_util.Vec

(* Metric cells of a context's registry; [Metrics] reads and writes
   them.  They are declared here so that one context can hold both the
   event log and the registry. *)
type histo = {
  bounds : float array; (* ascending upper bounds; +inf bucket implicit *)
  counts : int array; (* length = Array.length bounds + 1 *)
  mutable sum : float;
  mutable count : int;
}

type cell = Counter of float ref | Gauge of float ref | Histogram of histo
type registry = (string * (string * string) list, cell) Hashtbl.t

(* One run's observation state.  [log] and [registry] are [None] when
   the run does not record them, so an empty context allocates no
   buffer. *)
type ctx = {
  log : record Vec.t option;
  registry : registry option;
  mutable now : float; (* virtual clock stamped by the engine *)
  mutable floor : float; (* time of the last appended record *)
  mutable task : int; (* task whose code is executing; -1 scheduler *)
  mutable spans : int; (* last [Trace_ctx] span id allocated *)
}

let ctx ?(log = false) ?(metrics = false) () =
  {
    log =
      (if log then Some (Vec.create { seq = -1; time = 0.0; task = -1; kind = Net_heal })
       else None);
    registry = (if metrics then Some (Hashtbl.create 64) else None);
    now = 0.0;
    floor = 0.0;
    task = -1;
    spans = 0;
  }

(* The installed context: the only module-level cell of the observation
   layer.  Outside every run it is an empty context. *)
let installed = ref (ctx ())

let current () = !installed
let registry c = c.registry

(* Install [c] for the extent of [f]; the enclosing context is
   reinstalled on the way out, exceptions included. *)
let within c f =
  let saved = !installed in
  installed := c;
  Fun.protect ~finally:(fun () -> installed := saved) f

let enabled () = !installed.log != None
let set_task id = !installed.task <- id
let set_time t = !installed.now <- t

let emit kind =
  let c = !installed in
  match c.log with
  | None -> ()
  | Some buf ->
      if c.now < c.floor then
        invalid_arg
          (Printf.sprintf "Evlog.emit: virtual time went backwards (%.3f after %.3f)" c.now
             c.floor);
      c.floor <- c.now;
      Vec.push buf { seq = Vec.length buf; time = c.now; task = c.task; kind }

let next_span () =
  let c = !installed in
  c.spans <- c.spans + 1;
  c.spans

let log c = match c.log with Some buf -> Vec.to_array buf | None -> [||]

let capture f =
  let c = ctx ~log:true () in
  let v = within c f in
  (v, log c)

let kind_to_string = function
  | Task_spawn { task; name; cls; gate } ->
      Printf.sprintf "spawn task#%d %s [%s]%s" task name cls
        (if gate >= 0 then Printf.sprintf " gated-on event#%d" gate else "")
  | Task_start { task } -> Printf.sprintf "start task#%d" task
  | Task_finish { task } -> Printf.sprintf "finish task#%d" task
  | Ev_signal { ev; name } -> Printf.sprintf "signal event#%d %s" ev name
  | Ev_block { ev; name; producer } ->
      Printf.sprintf "block-on event#%d %s (producer task#%d)" ev name producer
  | Ev_wake { ev; task } -> Printf.sprintf "wake task#%d from event#%d" task ev
  | Gate_release { ev; task } -> Printf.sprintf "gate-release task#%d (event#%d)" task ev
  | Scope_intern { scope; name } -> Printf.sprintf "intern scope#%d %s" scope name
  | Publish { scope_name; sym; _ } -> Printf.sprintf "publish %s in %s" sym scope_name
  | Complete { scope_name; _ } -> Printf.sprintf "complete %s" scope_name
  | Observe { scope_name; sym; complete; _ } ->
      Printf.sprintf "observe %s in %s (%s)" sym scope_name
        (if complete then "complete" else "incomplete")
  | Auth_miss { scope_name; sym; _ } ->
      Printf.sprintf "authoritative miss of %s in %s" sym scope_name
  | Dky_block { scope_name; sym; ev; _ } ->
      Printf.sprintf "DKY-block on %s in %s (event#%d)" sym scope_name ev
  | Dky_unblock { scope_name; sym; ev; _ } ->
      Printf.sprintf "DKY-unblock on %s in %s (event#%d)" sym scope_name ev
  | Fault_inject { fault; victim } -> Printf.sprintf "inject %s on %s" fault victim
  | Task_retry { task; attempt } -> Printf.sprintf "retry task#%d (attempt %d)" task attempt
  | Task_quarantine { task; name } -> Printf.sprintf "quarantine task#%d %s" task name
  | Watchdog_fire { ev; task } ->
      Printf.sprintf "watchdog re-delivers event#%d to task#%d" ev task
  | Job_enqueue { job; session } -> Printf.sprintf "enqueue job#%d from %s" job session
  | Job_admit { job; session } -> Printf.sprintf "admit job#%d from %s" job session
  | Job_shed { job; session } -> Printf.sprintf "shed job#%d from %s" job session
  | Job_batch { job; leader; size } ->
      Printf.sprintf "batch job#%d with leader job#%d (batch of %d)" job leader size
  | Job_done { job; warm } ->
      Printf.sprintf "done job#%d (%s)" job (if warm then "warm" else "cold")
  | Node_start { node; procs } -> Printf.sprintf "node#%d up (%d procs)" node procs
  | Node_dead { node } -> Printf.sprintf "node#%d dead" node
  | Node_detect { node } -> Printf.sprintf "node#%d detected dead (missed heartbeats)" node
  | Heartbeat { node } -> Printf.sprintf "heartbeat node#%d" node
  | Rpc_fetch { node; peer; iface; attempt } ->
      Printf.sprintf "fetch %s: node#%d -> node#%d (attempt %d)" iface node peer attempt
  | Rpc_timeout { node; peer; iface; attempt } ->
      Printf.sprintf "timeout %s: node#%d -> node#%d (attempt %d)" iface node peer attempt
  | Rpc_hedge { node; replica; iface } ->
      Printf.sprintf "hedge %s: node#%d -> replica node#%d" iface node replica
  | Rpc_serve { node; peer; iface } ->
      Printf.sprintf "serve %s: node#%d -> node#%d" iface node peer
  | Farm_assign { node; iface } -> Printf.sprintf "assign %s to node#%d" iface node
  | Farm_steal { node; victim; iface } ->
      Printf.sprintf "steal %s: node#%d from node#%d" iface node victim
  | Farm_reshard { node; iface } -> Printf.sprintf "reshard %s to node#%d" iface node
  | Farm_task_done { node; iface } -> Printf.sprintf "done %s on node#%d" iface node
  | Farm_replicate { node; replica; iface } ->
      Printf.sprintf "replicate %s: node#%d -> node#%d" iface node replica
  | Net_partition { spec } -> Printf.sprintf "partition (%s)" spec
  | Net_heal -> "heal"
  | Span_start { span; parent; trace; name; kind; node } ->
      Printf.sprintf "span-start #%d %s [%s] parent #%d trace %s%s" span name kind parent trace
        (if node >= 0 then Printf.sprintf " node#%d" node else "")
  | Span_end { span; status } -> Printf.sprintf "span-end #%d (%s)" span status

let record_to_string r =
  Printf.sprintf "#%-6d t=%-10.1f task#%-4d %s" r.seq r.time r.task (kind_to_string r.kind)
