(** The concurrent compilation driver: the paper's system assembled.

    Wires the task graph of Fig. 5 for one compilation unit — the main
    module stream (Lexor, Splitter, Importer, Module Parser/Declarations
    Analyzer, Statement Analyzer/Code Generator), one gated stream per
    procedure, one stream per directly or indirectly imported interface
    via the once-only table, and a Merge task — then runs it on an
    execution engine: {!compile} on the deterministic simulated
    multiprocessor, {!compile_domains} on real OCaml domains. *)

open Mcc_m2
open Mcc_sem
open Mcc_codegen

(** Procedure-heading information flow (paper §2.4): [Alt1] processes
    the heading in the parent scope and copies the entries to the gated
    child; [Alt3] lets the ungated child re-derive identical entries. *)
type heading_mode = Alt1 | Alt3

type config = {
  strategy : Symtab.dky;
  heading : heading_mode;
  procs : int;  (** simulated processors *)
  beta : float;  (** memory-bus contention coefficient *)
  fifo_sched : bool;  (** ablation: disable the Supervisor's priorities (paper §2.3.4) *)
  tokq_block : int;  (** tokens per token-queue block (the paper's 64) *)
  tokq_barrier : bool;
      (** ablation: barrier token-queue availability events, the paper's
          choice (paper §2.3.3); handled events by default *)
  perturb : int option;
      (** schedule-exploration seed: randomize ready-queue tie-breaking
          (see {!Mcc_sched.Supervisor.create}); [None] = canonical *)
  faults : Mcc_sched.Fault.spec list;
      (** fault plan armed around the engine run; [[]] = none of its
          own (the enclosing run's plan, e.g. the farm's, stays armed) *)
  fault_seed : int;  (** seed deriving the plan's firing decisions *)
}

(** 8 processors, skeptical handling, alternative 1, calibrated beta,
    64-token blocks under handled events, no faults. *)
val default_config : config

(** Robustness counters: what the recovery layer did about injected (or
    real) faults during one compilation. *)
type robustness = {
  r_injected : int;  (** faults fired by the armed plan during the run *)
  r_retries : int;  (** crashed-at-start tasks redispatched after backoff *)
  r_quarantined : string list;  (** tasks permanently failed *)
  r_stalls : int;  (** injected stalled-worker delays *)
  r_watchdog_fires : int;  (** occurred events whose lost wakes were re-delivered *)
  r_recovered_wakes : int;  (** parked tasks the watchdog woke *)
  r_corrupt_rebuilds : int;  (** cache artifacts dropped by verification, rebuilt *)
  r_source_retries : int;  (** source-store read errors retried *)
  r_contained : int;  (** injected task failures absorbed without losing the run *)
  r_seq_fallbacks : int;  (** whole-program sequential recompiles (0 or 1) *)
}

(** All-zero counters (what a fault-free run reports). *)
val no_robustness : robustness

type result = {
  program : Cunit.program;
  diags : Diag.d list;
  ok : bool;  (** no errors *)
  sim : Mcc_sched.Des_engine.result;
  stats : Lookup_stats.t;
  n_proc_streams : int;
  n_def_streams : int;
  n_streams : int;  (** main + procedures + interfaces *)
  n_tasks : int;
  tokens : int;  (** tokens lexed across all files *)
  task_list : (string * string) list;  (** (class, name) per instantiated task *)
  cache_hits : string list;
      (** interfaces installed from the build cache instead of spawning
          their streams, sorted (empty without a cache) *)
  cache_misses : string list;
      (** interfaces fingerprinted but compiled cold (and then stored),
          sorted (empty without a cache) *)
  used_slices : (string * string list) list;
      (** per imported interface, the exported names this compilation
          resolved (or failed to resolve) there — the fine-grained
          dependency record slice-level invalidation keys on; sorted *)
  log : Mcc_obs.Evlog.record array;
      (** the structured concurrency event log ([[||]] unless compiled
          with [~capture:true]) *)
  telemetry : Mcc_obs.Metrics.snapshot option;
      (** the virtual-time metrics registry dump ([None] unless compiled
          with [~telemetry:true]) *)
  robustness : robustness;
  deadlock : string list;
      (** the engine's deadlock report (blocked-task wait graph) when
          the run quiesced with tasks parked; [[]] on a clean run *)
}

(** Statement parts at least this many nodes go to the long-procedure
    code-generation class (paper §2.3.4). *)
val long_threshold : int

(** Compile on the simulated multiprocessor — deterministic; all
    benchmark figures come from this path.  With [cache], a
    {!Build_cache.graph} of [store], interfaces whose fingerprint there
    is already stored in its cache are installed from their artifacts
    (paying explicit hash + probe + install charges) instead of spawning
    Lexor/Importer/DefParse streams; interfaces compiled cold are
    captured into the cache.  The compile runs in an
    observation context of its own ({!Mcc_obs.Evlog.ctx}), so it never
    writes into an enclosing capture or registry, and its event, task
    and scope ids, which diagnostics and the log name, count from 0
    whatever the process compiled before.  [~capture:true]
    records the structured concurrency event log into [result.log] for
    the happens-before analyzer ({!Mcc_analysis.Hb}), with the
    processor activity WatchTool and the Chrome export draw
    ({!Mcc_sched.Trace.of_log}); capture never charges work, so
    virtual timings are unchanged.

    Fault injection and self-healing: with [config.faults] non-empty, a
    deterministic {!Mcc_sched.Fault} plan (seeded by [config.fault_seed])
    is armed around the engine run.  Transient faults recover inside the
    pipeline (retry/backoff, watchdog wake re-delivery, corrupt-artifact
    rebuild) and yield byte-identical output to a fault-free run;
    permanent faults degrade gracefully — a lost stream triggers a
    whole-program sequential recompile, an unreadable source a precise
    diagnostic — and are never a hang or an uncaught exception.  What
    happened is reported in [result.robustness] and [result.deadlock].

    [~telemetry:true] additionally keeps a {!Mcc_obs.Metrics} registry
    in that context and returns its deterministic snapshot in
    [result.telemetry]; like capture, metrics never charge work.
    @raise Invalid_argument when [cache] holds another text of an
    interface the compile reads; no artifact is stored after that. *)
val compile :
  ?config:config ->
  ?capture:bool ->
  ?telemetry:bool ->
  ?cache:Build_cache.graph ->
  Source_store.t ->
  result

(** Render the instantiated task structure (the realization of Fig. 5
    for this compilation), grouped by class in priority order. *)
val dump_tasks : result -> string

(** {1 Real shared-memory execution} *)

type domain_result = {
  d_program : Cunit.program;
  d_diags : Diag.d list;
  d_ok : bool;
  d_wall_seconds : float;
  d_tasks_run : int;
  d_deadlocked : bool;
}

(** The same task graph on [domains] OCaml domains.  Produces a program
    byte-identical to {!compile}'s and {!Seq_driver.compile}'s.  Like
    {!compile}, it runs in a fresh (unlogged) context, so its ids count
    from 0.
    @raise Invalid_argument as {!compile} does. *)
val compile_domains :
  ?config:config -> ?cache:Build_cache.graph -> domains:int -> Source_store.t -> domain_result
