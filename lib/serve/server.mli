(** The compile server: a long-lived build service over the DES
    substrate.

    One virtual-time event loop: arrivals pass {!Admission} into the
    policy {!Queue}; when idle, the dispatcher pops a leader, pulls
    every queued job sharing its interface closure into a batch
    ({!Batch}), and serves them back to back.  Service times are the
    inner [Driver.compile] simulated times — the same virtual currency
    as the arrival process — so sojourns, throughput and queue dynamics
    compose honestly.  The shared warm state is one interface store
    plus one memo of whole-program results (keyed like [Project]'s
    incremental layer); a memo hit costs only key hashing and a probe.

    Fault isolation: each job compiles under its own plan (seeded
    [fault_seed + j_id]); a run that still fails with faults armed is
    re-served once clean, and only fault-free results are memoized, so
    a crashing job cannot poison the shared cache. *)

open Mcc_core

(** The shared warm state: interface store + whole-program result memo. *)
type cache = { bc : Build_cache.t; memo : (Driver.result, unit) Build_cache.memo }

(** [cache ?cache_mb ?memo_cap ()] — [cache_mb] bounds the interface
    store (LRU eviction); [memo_cap] bounds the memo entry count
    (cost-aware GreedyDual eviction).  Both default to unbounded. *)
val cache : ?cache_mb:int -> ?memo_cap:int -> unit -> cache

type config = {
  compile : Driver.config;  (** base per-job compile config; faults must be [] *)
  policy : Queue.policy;
  cap : int;  (** admission bound on the queue *)
  quantum : int;  (** DRR grant, source bytes *)
  batch_max : int;  (** max jobs per batch; 1 disables batching *)
  deadline : float option;
      (** per-job deadline, virtual seconds: a job still queued longer
          than this after arrival is shed at dispatch (counted in
          [r_deadline_shed]), never served — the client has stopped
          waiting.  [None] = serve everything admitted. *)
  faults : Mcc_sched.Fault.spec list;  (** per-job fault plan; [[]] = none *)
  fault_seed : int;
}

(** Fair policy, cap 64, quantum 8192, batches of 8, no deadline, no
    faults, over [Driver.default_config]. *)
val default_config : config

type session_stats = {
  ss_session : string;
  ss_submitted : int;
  ss_served : int;
  ss_shed : int;
  ss_mean : float;
  ss_p50 : float;
  ss_p99 : float;
  ss_max : float;  (** sojourn seconds *)
}

type report = {
  r_policy : string;
  r_procs : int;
  r_submitted : int;
  r_served : int;
  r_warm : int;  (** jobs answered from the module memo *)
  r_shed : int;  (** admission-control sheds *)
  r_deadline_shed : int;
      (** overdue jobs shed at dispatch; always
          [r_served + r_shed + r_deadline_shed = r_submitted] *)
  r_failed : int;  (** served but [ok = false] (genuine compile errors) *)
  r_retried : int;  (** failed under faults, re-served clean *)
  r_batches : int;  (** dispatches that coalesced more than one job *)
  r_batched_jobs : int;  (** jobs that rode another leader's batch *)
  r_max_batch : int;
  r_end_seconds : float;  (** completion time of the last job *)
  r_throughput : float;  (** served jobs per virtual second *)
  r_mean : float;
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;
  r_max : float;  (** sojourn seconds across served jobs *)
  r_max_depth : int;  (** peak queue depth *)
  r_iface_hits : int;
  r_iface_misses : int;
  r_iface_invalidations : int;
  r_iface_evictions : int;
  r_memo_hits : int;
  r_memo_misses : int;
  r_memo_evictions : int;
  r_sessions : session_stats list;  (** name-sorted *)
  r_served_jobs : Request.served list;  (** in completion order *)
  r_shed_jobs : Request.job list;  (** in shed order *)
  r_events : Mcc_obs.Evlog.record array;  (** empty unless [trace] *)
  r_subs : Mcc_obs.Dtrace.sub list;
      (** nested compile captures, one per cold/retry segment span;
          empty unless [trace] *)
  r_slo : Mcc_obs.Slo.t;
      (** the always-on flight recorder: per-class burn rates plus one
          trip per latency miss / shed / deadline shed / fault retry *)
}

(** Run the server over a job trace (sorted internally by arrival).
    Pass the same [cache] again to serve warm.  [trace] brackets every
    job with distributed-trace spans — job / queue / service / probe /
    compile / retry — recorded into [r_events], captures each inner
    engine run into [r_subs], and stamps trips with trace ids; feed
    [r_events] and [r_subs] to [Mcc_obs.Dtrace.assemble].
    Virtual times and results are identical with tracing on or off.
    @raise Invalid_argument when the base compile config carries a
    fault plan (put it in the server config). *)
val serve : ?trace:bool -> cache:cache -> config -> Request.job list -> report

(** The seq-vs-server conformance oracle: every served job's output
    must be observationally identical to a one-shot cacheless compile
    of the same program — covering warm answers, batch members and
    fault-retried jobs, hence also proving a crashing job did not
    corrupt the shared cache.  [Ok n] = all [n] served jobs conform;
    [Error msg] names the first divergence. *)
val verify : config -> report -> (int, string) result
