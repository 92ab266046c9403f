(* The structured concurrency event log.

   A single, globally ordered record stream of every synchronization-
   relevant action the compiler performs while running on the DES engine:
   symbol publishes, scope completions, DKY blocks/unblocks, event
   signal/block/wake, gated-task releases, task spawn/start/finish, and
   the processor activity ([Busy]) that is the DES's only recording of
   what ran when.  The happens-before checker ([Mcc_analysis.Hb])
   replays this log to verify the DKY ordering invariants the paper's
   correctness argument (§2.3.3) rests on, across many perturbed
   schedules; the telemetry layer ([Span], [Critpath]) reconstructs
   per-task timelines from the same stream, and [Mcc_sched.Trace]
   rebuilds the per-processor segments WatchTool and the Chrome export
   draw.

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
   and current task, the [Metrics] registry, the [Trace_ctx] span
   counter and the event, task and scope id counters — is one [ctx]
   value, held by the run's [run] record next to the engine state that
   run mutates.  A run is installed with [within]; emitters write to
   whichever context is installed on their domain, so a nested run
   never touches its encloser's log, and nesting costs one save/restore
   of the slot.
   Ids are numbered per context: a fresh context counts each kind from
   0, so a compile (which makes its own) names the same ids whatever
   the process ran before, and a nested run that keeps its encloser's
   context ([Des_engine.run]'s) keeps counting in the same sequence.
   Every id of one compile comes from one counter per kind, because the
   engines key parked waiters and gates by event id.

   A context records nothing unless it was made with [~log] (or
   [~metrics]), and every emission site is guarded by [enabled ()]
   *before* the record is allocated, so an unobserved compile performs
   no logging work at all — and no record ever charges [Eff.work], so
   even a captured run's virtual timings are identical to an uncaptured
   one.  The log is only meaningful under the single-
   threaded DES engine (the domain engine runs in an [unlogged] copy
   of its encloser's context, which shares only the id counters):
   records are appended in true execution order, which is exactly the
   total order the checker needs.

   The installed run sits in a [Domain.DLS] slot, one per domain, with
   the execution mode among its fields: a domain starts outside every
   run, and two compiles on two domains share no log, clock, id
   counter, accumulator or mode.  The lookup has a cost: [Eff.work],
   which reads the slot once, takes about 8.7 ns a call against 4.0 ns
   with one global slot, and a DES pass of the 37-program suite reads
   the slot 4.28 M times, so about 20 ms of a 0.45 s pass; alternating
   benchmark pairs show no end-to-end change above their noise. *)

type kind =
  | Task_spawn of {
      task : int;
      name : string;
      cls : string; (* Task.cls_name of the spawned task *)
      gate : int (* event id; -1 ungated *);
    }
  | Task_start of { task : int }
  | Task_finish of { task : int }
  | Busy of { proc : int; task : int; t0 : float; t1 : float; barrier : bool }
      (* processor [proc] ran [task] over [t0, t1] or, [barrier], held
         it bound through a barrier wait: the DES's one record of what
         ran when, emitted as the segment is scheduled *)
  | Ev_signal of { ev : int; name : string }
  | Ev_block of { ev : int; name : string; producer : int (* task id; -1 unknown *) }
  | Ev_wake of { ev : int; task : int (* the woken task *) }
  | Gate_release of { ev : int; task : int (* the released gated task *) }
  | Frame_add of { key : string }
      (* a global frame reached the merger ([Cunit.add_frame]) *)
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
  (* Build-farm lifecycle ([Mcc_farm]): one record stream for the whole
     multi-node run, stamped with the farm's virtual clock.  [node] is
     the acting node; RPC records carry both ends of the link. *)
  | Node_dead of { node : int } (* a node-crash fault fired at a heartbeat *)
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
   buffer.  The id counters are atomic: domain-engine tasks create
   events and scopes concurrently. *)
type ctx = {
  log : record Vec.t option;
  registry : registry option;
  mutable now : float; (* virtual clock stamped by the engine *)
  mutable floor : float; (* time of the last appended record *)
  mutable task : int; (* task whose code is executing; -1 scheduler *)
  mutable spans : int; (* last [Trace_ctx] span id allocated *)
  events : int Atomic.t; (* next [Event] id *)
  tasks : int Atomic.t; (* next [Task] id *)
  scopes : int Atomic.t; (* next [Symtab] scope id *)
}

let ctx ?(log = false) ?(metrics = false) () =
  {
    log =
      (if log then
         Some (Vec.create { seq = -1; time = 0.0; task = -1; kind = Task_start { task = -1 } })
       else None);
    registry = (if metrics then Some (Hashtbl.create 64) else None);
    now = 0.0;
    floor = 0.0;
    task = -1;
    spans = 0;
    events = Atomic.make 0;
    tasks = Atomic.make 0;
    scopes = Atomic.make 0;
  }

(* Records nothing, but shares [c]'s id counters, which are boxed. *)
let unlogged c = { c with log = None; registry = None }

(* How [Eff] performs a run's effects: [Engine] hands them to an
   engine's handler, [Direct] (the sequential compiler, unit tests)
   accumulates work into [direct_total] and insists waits are already
   satisfied. *)
type mode = Direct | Engine

(* One run: its observation context and the engine state it mutates —
   the execution mode, the work accumulator and direct-mode total
   ([Eff]), the accounting switch (off on real domains) and the armed
   fault plan ([Fault]). *)
type run = {
  obs : ctx;
  faults : Fault_plan.plan option;
  accounting : bool;
  mode : mode;
  mutable acc : int;
  mutable direct_total : float;
}

(* The installed run, one per domain.  A domain starts outside every
   run: an empty context of its own, accounting on, [Direct]. *)
let slot =
  Domain.DLS.new_key (fun () ->
      { obs = ctx (); faults = None; accounting = true; mode = Direct; acc = 0; direct_total = 0.0 })

let run () = Domain.DLS.get slot
let registry c = c.registry

(* Install a fresh run, with nothing charged, for the extent of [f]. *)
let within ?obs ?faults ?(accounting = true) ?mode f =
  let saved = run () in
  let obs = Option.value obs ~default:saved.obs in
  let faults = if Option.is_some faults then faults else saved.faults in
  let mode = Option.value mode ~default:saved.mode in
  Domain.DLS.set slot { obs; faults; accounting; mode; acc = 0; direct_total = 0.0 };
  Fun.protect ~finally:(fun () -> Domain.DLS.set slot saved) f

let enabled () = (run ()).obs.log != None
let set_task id = (run ()).obs.task <- id
let set_time t = (run ()).obs.now <- t

let emit kind =
  let c = (run ()).obs in
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
  let c = (run ()).obs in
  c.spans <- c.spans + 1;
  c.spans

let next_event () = Atomic.fetch_and_add (run ()).obs.events 1
let next_task () = Atomic.fetch_and_add (run ()).obs.tasks 1
let next_scope () = Atomic.fetch_and_add (run ()).obs.scopes 1

let log c = match c.log with Some buf -> Vec.to_array buf | None -> [||]

let capture f =
  let obs = ctx ~log:true () in
  let v = within ~obs f in
  (v, log obs)
