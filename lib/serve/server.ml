(* The compile server: a long-lived build service over the DES
   substrate.

   One virtual-time event loop plays both roles of an M/G/1-style
   queueing station: arrivals (from [Traffic]) pass admission control
   into the policy queue; whenever the station is idle and the queue is
   non-empty, the dispatcher pops a leader per policy, pulls every
   queued job sharing its interface closure into a batch, and serves
   the batch members back to back.  Service times are the simulated
   compile times of the inner [Driver.compile] runs — the same virtual
   currency as the arrival process — so sojourn times, throughput and
   queue dynamics compose honestly.

   The shared state across jobs is exactly the warm cache: one
   [Build_cache.t] of interface artifacts plus one module memo of
   whole-program [Driver.result]s (keyed like [Project]'s incremental
   layer, including the configuration tag).  A memo hit serves a job
   for just its key-hashing and probe cost; that is the entire
   cold/warm gap the benchmark measures.

   Fault isolation: with a fault plan configured, every job is compiled
   under its own plan (seeded [fault_seed + j_id]), so injections are
   per-job.  The driver's recovery layer absorbs most injections inside
   the run; if a run still fails while faults were armed, the server
   re-serves the job once with faults disarmed — paying both runs'
   virtual time — and only fault-free results are ever memoized, so a
   crashing job cannot poison the shared cache (interface artifacts are
   digest-verified on every probe besides). *)

open Mcc_core
module Evlog = Mcc_obs.Evlog
module Trace_ctx = Mcc_obs.Trace_ctx
module Dtrace = Mcc_obs.Dtrace
module Slo = Mcc_obs.Slo
module Costs = Mcc_sched.Costs
module Des_engine = Mcc_sched.Des_engine

type cache = { bc : Build_cache.t; memo : Driver.result Build_cache.memo }

let cache ?cache_mb ?memo_cap () =
  {
    bc = Build_cache.create ?cap_bytes:(Option.map (fun mb -> mb * 1024 * 1024) cache_mb) ();
    memo = Build_cache.memo ?cap:memo_cap ();
  }

type config = {
  compile : Driver.config; (* base per-job compile config; faults must be [] *)
  policy : Queue.policy;
  cap : int; (* admission bound on the queue *)
  quantum : int; (* DRR grant, source bytes *)
  batch_max : int; (* max jobs per batch; 1 disables batching *)
  deadline : float option; (* shed a job still queued this long after arrival *)
  faults : Mcc_sched.Fault.spec list; (* per-job fault plan; [] = none *)
  fault_seed : int;
}

let default_config =
  {
    compile = Driver.default_config;
    policy = Queue.Fair;
    cap = 64;
    quantum = 8192;
    batch_max = 8;
    deadline = None;
    faults = [];
    fault_seed = 0;
  }

type session_stats = {
  ss_session : string;
  ss_submitted : int;
  ss_served : int;
  ss_shed : int;
  ss_mean : float;
  ss_p50 : float;
  ss_p99 : float;
  ss_max : float; (* sojourn seconds *)
}

type report = {
  r_policy : string;
  r_procs : int;
  r_submitted : int;
  r_served : int;
  r_warm : int; (* jobs answered from the module memo *)
  r_shed : int;
  r_deadline_shed : int; (* jobs shed overdue at dispatch, distinct from admission sheds *)
  r_failed : int; (* served but [ok = false] (genuine compile errors) *)
  r_retried : int; (* failed under faults, re-served clean *)
  r_batches : int; (* dispatches that coalesced more than one job *)
  r_batched_jobs : int; (* jobs that rode another leader's batch *)
  r_max_batch : int;
  r_end_seconds : float; (* completion time of the last job *)
  r_throughput : float; (* served jobs per virtual second *)
  r_mean : float;
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;
  r_max : float; (* sojourn seconds across served jobs *)
  r_max_depth : int; (* peak queue depth *)
  r_iface_hits : int;
  r_iface_misses : int;
  r_iface_invalidations : int;
  r_iface_evictions : int;
  r_memo_hits : int;
  r_memo_misses : int;
  r_memo_evictions : int;
  r_sessions : session_stats list; (* name-sorted *)
  r_served_jobs : Request.served list; (* in completion order *)
  r_shed_jobs : Request.job list; (* in shed order *)
  r_events : Evlog.record array; (* empty unless [capture] *)
  r_subs : Dtrace.sub list; (* nested compile captures; empty unless [trace] *)
  r_slo : Slo.t; (* the always-on flight recorder *)
}

let summarize = Mcc_util.Quantile.summarize

(* The SLO class of a job: its priority band. *)
let slo_class (j : Request.job) = Printf.sprintf "p%d" j.Request.j_priority

(* One job's service: probe the shared module memo; on a miss run the
   full concurrent compiler against the shared interface store.
   Returns (result, service segments, warm, retried) where each
   segment is (span kind, duration seconds, nested capture option) —
   the service span's exact tiling. *)
let compile_job ~trace cfg cache (j : Request.job) =
  let base = cfg.compile in
  let tag = Project.config_tag base in
  let fpmemo = Hashtbl.create 16 in
  let key, key_units = Build_cache.module_key cache.bc ~memo:fpmemo ~config_tag:tag j.Request.j_store in
  let overhead = Costs.to_seconds (float_of_int (key_units + Costs.cache_probe)) in
  match Build_cache.find_module cache.memo key with
  | Some r -> (r, [ ("probe", overhead, None) ], true, false)
  | None ->
      let name = Source_store.main_name j.Request.j_store in
      let run config =
        (* the inner compile runs in its own context; when tracing, its
           log becomes a sub-log of the job's compile span *)
        Driver.compile ~config ~capture:trace ~cache:cache.bc j.Request.j_store
      in
      let memoize (r : Driver.result) =
        (* only fault-free results enter the shared memo: a result
           produced under injections embeds recovery timings (and, for
           permanent faults, losses) that must not leak into other
           clients' warm answers *)
        if r.Driver.robustness.Driver.r_injected = 0 then
          Build_cache.store_module ~cost:r.Driver.sim.Des_engine.end_seconds cache.memo ~name
            ~key r
      in
      let faulted = cfg.faults <> [] in
      let config1 =
        if faulted then
          { base with Driver.faults = cfg.faults; fault_seed = cfg.fault_seed + j.Request.j_id }
        else base
      in
      let r1 = run config1 in
      let probe = ("probe", overhead, None) in
      if r1.Driver.ok || not faulted then begin
        memoize r1;
        (r1, [ probe; ("compile", r1.Driver.sim.Des_engine.end_seconds, Some r1) ], false, false)
      end
      else begin
        (* the armed plan defeated the run's own recovery (quarantine,
           poisoned import...): re-serve once, clean *)
        let r2 = run base in
        memoize r2;
        ( r2,
          [
            probe;
            ("compile", r1.Driver.sim.Des_engine.end_seconds, Some r1);
            ("retry", r2.Driver.sim.Des_engine.end_seconds, Some r2);
          ],
          false,
          true )
      end

let serve ?(capture = false) ?(trace = false) ~cache cfg (jobs : Request.job list) =
  let capture = capture || trace in
  if cfg.compile.Driver.faults <> [] then
    invalid_arg "Server.serve: put the fault plan in the server config, not the compile config";
  let jobs =
    List.sort
      (fun (a : Request.job) b ->
        compare (a.Request.j_arrival, a.Request.j_id) (b.Request.j_arrival, b.Request.j_id))
      jobs
  in
  let iface0 = Build_cache.counters cache.bc in
  let ievict0 = Build_cache.eviction_count cache.bc in
  let memo0 = Build_cache.memo_counters cache.memo in
  let mevict0 = Build_cache.memo_eviction_count cache.memo in
  let q = Queue.create ~quantum:cfg.quantum cfg.policy in
  let adm = Admission.create ~cap:cfg.cap q in
  let arrivals = ref jobs in
  let now = ref 0.0 in
  let served = ref [] (* reversed *) in
  let shed = ref [] (* reversed *) in
  let deadline_shed = ref 0 in
  let max_depth = ref 0 in
  let batches = ref 0 in
  let batched_jobs = ref 0 in
  let max_batch = ref 0 in
  let slo = Slo.create () in
  let subs = ref [] (* reversed Dtrace.sub list *) in
  let tid_of (j : Request.job) =
    Trace_ctx.trace_id ~domain:"serve" ~seed:cfg.fault_seed
      ~key:
        (Printf.sprintf "%s/%d/M%02d" j.Request.j_session j.Request.j_id j.Request.j_rank)
  in
  (* open (job span, queue span, trace id) per in-flight job id *)
  let spans : (int, Trace_ctx.t * Trace_ctx.t * string) Hashtbl.t = Hashtbl.create 64 in
  let emit_at seconds kind =
    if Evlog.enabled () then begin
      Evlog.set_task (-1);
      Evlog.set_time (seconds /. Costs.seconds_per_unit);
      Evlog.emit kind
    end
  in
  let emit_span seconds kind = if trace then emit_at seconds kind in
  (* close an in-flight job's queue + job spans, e.g. on a shed *)
  let close_spans ~at ~status (j : Request.job) =
    match Hashtbl.find_opt spans j.Request.j_id with
    | Some (jsp, qsp, _) ->
        emit_span at (Evlog.Span_end { span = qsp.Trace_ctx.span; status });
        emit_span at (Evlog.Span_end { span = jsp.Trace_ctx.span; status });
        Hashtbl.remove spans j.Request.j_id
    | None -> ()
  in
  (* move every arrival with time <= limit through admission *)
  let admit_until limit =
    let continue_ = ref true in
    while !continue_ do
      match !arrivals with
      | j :: rest when j.Request.j_arrival <= limit ->
          arrivals := rest;
          emit_at j.Request.j_arrival
            (Evlog.Job_enqueue { job = j.Request.j_id; session = j.Request.j_session });
          if trace then begin
            let tid = tid_of j in
            let jsp = Trace_ctx.root ~trace:tid in
            let qsp = Trace_ctx.child jsp in
            Hashtbl.replace spans j.Request.j_id (jsp, qsp, tid);
            emit_span j.Request.j_arrival
              (Evlog.Span_start
                 {
                   span = jsp.Trace_ctx.span;
                   parent = -1;
                   trace = tid;
                   name = Printf.sprintf "job#%d" j.Request.j_id;
                   kind = "job";
                   node = -1;
                 });
            emit_span j.Request.j_arrival
              (Evlog.Span_start
                 {
                   span = qsp.Trace_ctx.span;
                   parent = jsp.Trace_ctx.span;
                   trace = tid;
                   name = "queue";
                   kind = "queue";
                   node = -1;
                 })
          end;
          (match Admission.offer adm j with
          | Admission.Admitted ->
              emit_at j.Request.j_arrival
                (Evlog.Job_admit { job = j.Request.j_id; session = j.Request.j_session })
          | Admission.Shed victim ->
              shed := victim :: !shed;
              emit_at j.Request.j_arrival
                (Evlog.Job_shed
                   { job = victim.Request.j_id; session = victim.Request.j_session });
              close_spans ~at:j.Request.j_arrival ~status:"shed" victim;
              Slo.trip slo ~job:victim.Request.j_id ~cls:(slo_class victim)
                ~trace:(tid_of victim) ~reason:Slo.Shed ~at:j.Request.j_arrival
                ~detail:
                  (Printf.sprintf "admission cap %d: shed by job #%d" cfg.cap j.Request.j_id));
          let depth = Queue.length q in
          if depth > !max_depth then max_depth := depth
      | _ -> continue_ := false
    done
  in
  let serve_one ~batched (j : Request.job) =
    let start = !now in
    let result, segs, warm, retried = compile_job ~trace cfg cache j in
    let dur = List.fold_left (fun acc (_, d, _) -> acc +. d) 0.0 segs in
    let finish = start +. dur in
    (* arrivals during this service are admitted (at their own times)
       before the completion event, keeping the log time-monotone; when
       tracing, the admissions interleave with the segment boundaries *)
    if trace then begin
      match Hashtbl.find_opt spans j.Request.j_id with
      | Some (jsp, qsp, tid) ->
          emit_span start (Evlog.Span_end { span = qsp.Trace_ctx.span; status = "ok" });
          let ssp = Trace_ctx.child jsp in
          emit_span start
            (Evlog.Span_start
               {
                 span = ssp.Trace_ctx.span;
                 parent = jsp.Trace_ctx.span;
                 trace = tid;
                 name = "service";
                 kind = "service";
                 node = -1;
               });
          let t = ref start in
          let last = List.length segs - 1 in
          List.iteri
            (fun i (kind, d, sub) ->
              let seg = Trace_ctx.child ssp in
              emit_span !t
                (Evlog.Span_start
                   {
                     span = seg.Trace_ctx.span;
                     parent = ssp.Trace_ctx.span;
                     trace = tid;
                     name = kind;
                     kind;
                     node = -1;
                   });
              (match sub with
              | Some (r : Driver.result) when Array.length r.Driver.log > 0 ->
                  subs :=
                    {
                      Dtrace.sub_owner = seg.Trace_ctx.span;
                      sub_t0 = !t /. Costs.seconds_per_unit;
                      sub_scale = 1.0;
                      sub_log = r.Driver.log;
                      sub_names = r.Driver.task_index;
                    }
                    :: !subs
              | _ -> ());
              (* the last segment closes exactly at [finish] so the
                 service span is tiled to the last ulp *)
              let fin = if i = last then finish else !t +. d in
              admit_until fin;
              emit_span fin (Evlog.Span_end { span = seg.Trace_ctx.span; status = "ok" });
              t := fin)
            segs;
          emit_span finish (Evlog.Span_end { span = ssp.Trace_ctx.span; status = "ok" });
          emit_span finish
            (Evlog.Span_end
               { span = jsp.Trace_ctx.span; status = (if warm then "hit" else "ok") });
          Hashtbl.remove spans j.Request.j_id
      | None -> admit_until finish
    end
    else admit_until finish;
    now := finish;
    emit_at finish (Evlog.Job_done { job = j.Request.j_id; warm });
    Slo.observe slo ~job:j.Request.j_id ~cls:(slo_class j) ~trace:(tid_of j)
      ~sojourn:(finish -. j.Request.j_arrival) ~at:finish;
    if retried then
      Slo.trip slo ~job:j.Request.j_id ~cls:(slo_class j) ~trace:(tid_of j) ~reason:Slo.Fault
        ~at:finish ~detail:"fault plan defeated recovery; re-served clean";
    served :=
      {
        Request.s_job = j;
        s_start = start;
        s_finish = finish;
        s_warm = warm;
        s_batched = batched;
        s_retried = retried;
        s_result = result;
      }
      :: !served
  in
  (* a job still queued past its deadline is shed at dispatch, never
     served: the client has long stopped waiting for the answer *)
  let overdue (j : Request.job) =
    match cfg.deadline with Some d -> !now -. j.Request.j_arrival > d | None -> false
  in
  let shed_overdue (j : Request.job) =
    incr deadline_shed;
    emit_at !now (Evlog.Job_shed { job = j.Request.j_id; session = j.Request.j_session });
    close_spans ~at:!now ~status:"deadline" j;
    Slo.trip slo ~job:j.Request.j_id ~cls:(slo_class j) ~trace:(tid_of j)
      ~reason:Slo.Deadline_shed ~at:!now
      ~detail:
        (Printf.sprintf "queued %.2fs > deadline %.2fs" (!now -. j.Request.j_arrival)
           (Option.value ~default:0.0 cfg.deadline))
  in
  let rec loop () =
    match Queue.pop q with
    | Some leader when overdue leader ->
        shed_overdue leader;
        loop ()
    | Some leader ->
        let mates =
          if cfg.batch_max > 1 then
            Batch.pull q ~closure:leader.Request.j_closure ~limit:(cfg.batch_max - 1)
          else []
        in
        let mates, late = List.partition (fun m -> not (overdue m)) mates in
        List.iter shed_overdue late;
        if mates <> [] then begin
          incr batches;
          batched_jobs := !batched_jobs + List.length mates;
          max_batch := max !max_batch (1 + List.length mates);
          List.iter
            (fun (m : Request.job) ->
              emit_at !now
                (Evlog.Job_batch
                   {
                     job = m.Request.j_id;
                     leader = leader.Request.j_id;
                     size = 1 + List.length mates;
                   }))
            mates
        end;
        serve_one ~batched:false leader;
        List.iter (serve_one ~batched:true) mates;
        loop ()
    | None -> (
        match !arrivals with
        | [] -> ()
        | j :: _ ->
            (* idle: jump to the next arrival *)
            now := max !now j.Request.j_arrival;
            admit_until !now;
            loop ())
  in
  let events = ref [||] in
  let run () =
    admit_until 0.0;
    loop ()
  in
  if capture then begin
    let (), log = Evlog.capture run in
    events := log
  end
  else run ();
  let served = List.rev !served in
  let shed = List.rev !shed in
  let sojourns = List.map Request.sojourn served in
  let mean, p50, p95, p99 , maxv = summarize sojourns in
  let end_seconds = List.fold_left (fun acc s -> Float.max acc s.Request.s_finish) 0.0 served in
  let session_names =
    List.sort_uniq compare (List.map (fun (j : Request.job) -> j.Request.j_session) jobs)
  in
  let sessions =
    List.map
      (fun name ->
        let subs =
          List.length
            (List.filter (fun (j : Request.job) -> j.Request.j_session = name) jobs)
        in
        let mine =
          List.filter (fun s -> s.Request.s_job.Request.j_session = name) served
        in
        let shed_n =
          List.length
            (List.filter (fun (j : Request.job) -> j.Request.j_session = name) shed)
        in
        let mean, p50, _, p99, maxv = summarize (List.map Request.sojourn mine) in
        {
          ss_session = name;
          ss_submitted = subs;
          ss_served = List.length mine;
          ss_shed = shed_n;
          ss_mean = mean;
          ss_p50 = p50;
          ss_p99 = p99;
          ss_max = maxv;
        })
      session_names
  in
  let h1, m1, i1 = Build_cache.counters cache.bc in
  let h0, m0, i0 = iface0 in
  let mh1, mm1, _ = Build_cache.memo_counters cache.memo in
  let mh0, mm0, _ = memo0 in
  {
    r_policy = Queue.policy_to_string cfg.policy;
    r_procs = cfg.compile.Driver.procs;
    r_submitted = List.length jobs;
    r_served = List.length served;
    r_warm = List.length (List.filter (fun s -> s.Request.s_warm) served);
    r_shed = List.length shed;
    r_deadline_shed = !deadline_shed;
    r_failed = List.length (List.filter (fun s -> not s.Request.s_result.Driver.ok) served);
    r_retried = List.length (List.filter (fun s -> s.Request.s_retried) served);
    r_batches = !batches;
    r_batched_jobs = !batched_jobs;
    r_max_batch = !max_batch;
    r_end_seconds = end_seconds;
    r_throughput =
      (if end_seconds > 0.0 then float_of_int (List.length served) /. end_seconds else 0.0);
    r_mean = mean;
    r_p50 = p50;
    r_p95 = p95;
    r_p99 = p99;
    r_max = maxv;
    r_max_depth = !max_depth;
    r_iface_hits = h1 - h0;
    r_iface_misses = m1 - m0;
    r_iface_invalidations = i1 - i0;
    r_iface_evictions = Build_cache.eviction_count cache.bc - ievict0;
    r_memo_hits = mh1 - mh0;
    r_memo_misses = mm1 - mm0;
    r_memo_evictions = Build_cache.memo_eviction_count cache.memo - mevict0;
    r_sessions = sessions;
    r_served_jobs = served;
    r_shed_jobs = shed;
    r_events = !events;
    r_subs = List.rev !subs;
    r_slo = slo;
  }

(* ------------------------------------------------------------------ *)
(* The seq-vs-server conformance oracle *)

(* Every served job's output must be observationally identical to a
   one-shot cacheless compile of the same program — diagnostics, object
   code, the lot.  One oracle compile per distinct program (rank), then
   every served result of that rank is compared against it; this covers
   warm answers, batch members and fault-retried jobs alike, so it is
   also the proof that a crashing job did not corrupt the shared
   cache. *)
let verify cfg report =
  let module Observation = Mcc_check.Observation in
  let oracles = Hashtbl.create 8 in
  let oracle (j : Request.job) =
    match Hashtbl.find_opt oracles j.Request.j_rank with
    | Some o -> o
    | None ->
        let r = Driver.compile ~config:cfg.compile j.Request.j_store in
        let o = Observation.of_driver ~run:false r in
        Hashtbl.replace oracles j.Request.j_rank o;
        o
  in
  let rec check n = function
    | [] -> Ok n
    | s :: rest -> (
        let reference = oracle s.Request.s_job in
        let obs = Observation.of_driver ~run:false s.Request.s_result in
        match Observation.first_diff ~reference obs with
        | None -> check (n + 1) rest
        | Some (field, expected, actual) ->
            Error
              (Printf.sprintf "job #%d (%s, M%02d): %s: oracle %s, served %s"
                 s.Request.s_job.Request.j_id s.Request.s_job.Request.j_session
                 s.Request.s_job.Request.j_rank field expected actual))
  in
  check 0 report.r_served_jobs
