(* The concurrent compilation driver.

   Assembles the whole system of the paper's Figure 5 for one compilation
   unit and runs it on an execution engine:

   - main module stream: Lexor -> (Splitter, Importer) -> Module
     Parser/Declarations Analyzer -> Statement Analyzer/Code Generator;
   - one stream per procedure, created by the Splitter: (gated)
     Parser/Declarations Analyzer -> Statement Analyzer/Code Generator;
   - one stream per directly or indirectly imported definition module,
     created through the once-only table: Lexor -> Importer ->
     Parser/Declarations Analyzer;
   - a Merge task that concatenates the per-procedure code units once the
     last code generator (and interface analysis, whose global frames the
     program needs) finishes.

   The DKY strategy, the procedure-heading information-flow alternative
   (paper §2.4) and the simulated processor count are configuration. *)

open Mcc_m2
open Mcc_sched
open Mcc_sem
open Mcc_codegen
module P = Mcc_parse.Parser
module A = Mcc_ast.Ast
module Evlog = Mcc_obs.Evlog
module Metrics = Mcc_obs.Metrics

type heading_mode = Alt1 | Alt3

type config = {
  strategy : Symtab.dky;
  heading : heading_mode;
  procs : int;
  beta : float; (* memory-bus contention coefficient *)
  fifo_sched : bool; (* ablation: disable the Supervisor's priorities *)
  perturb : int option;
      (* schedule-exploration seed: randomize ready-queue tie-breaking
         (see Supervisor.create); None = the canonical schedule *)
  faults : Fault.spec list;
      (* fault plan armed around the engine run; [] = no injection (an
         externally armed plan, e.g. the explorer's, is left in place) *)
  fault_seed : int; (* seed deriving the plan's firing decisions *)
}

let default_config =
  {
    strategy = Symtab.Skeptical;
    heading = Alt1;
    procs = 8;
    beta = Costs.bus_beta;
    fifo_sched = false;
    perturb = None;
    faults = [];
    fault_seed = 0;
  }

(* Robustness counters: what the recovery layer did about injected (or
   real) faults during this compilation. *)
type robustness = {
  r_injected : int; (* faults fired by the armed plan during the run *)
  r_retries : int; (* crashed-at-start tasks redispatched after backoff *)
  r_quarantined : string list; (* tasks permanently failed *)
  r_stalls : int; (* injected stalled-worker delays *)
  r_watchdog_fires : int; (* occurred events whose lost wakes were re-delivered *)
  r_recovered_wakes : int; (* parked tasks the watchdog woke *)
  r_corrupt_rebuilds : int; (* cache artifacts dropped by verification, rebuilt *)
  r_source_retries : int; (* source-store read errors retried *)
  r_contained : int; (* injected task failures absorbed without losing the run *)
  r_seq_fallbacks : int; (* whole-program sequential recompiles (0 or 1) *)
}

let no_robustness =
  {
    r_injected = 0;
    r_retries = 0;
    r_quarantined = [];
    r_stalls = 0;
    r_watchdog_fires = 0;
    r_recovered_wakes = 0;
    r_corrupt_rebuilds = 0;
    r_source_retries = 0;
    r_contained = 0;
    r_seq_fallbacks = 0;
  }

type result = {
  program : Cunit.program;
  diags : Diag.d list;
  ok : bool; (* no errors *)
  sim : Des_engine.result;
  stats : Lookup_stats.t;
  n_proc_streams : int;
  n_def_streams : int;
  n_streams : int; (* main + procedures + interfaces *)
  n_tasks : int;
  tokens : int; (* tokens lexed across all files *)
  task_list : (string * string) list; (* (class, name) per instantiated task, Fig. 5 *)
  task_index : (int * string) list; (* task id -> name, for trace/log rendering *)
  cache_hits : string list; (* interfaces installed from the build cache, sorted *)
  cache_misses : string list; (* interfaces fingerprinted but compiled cold, sorted *)
  cache_evictions : int; (* size-bound evictions in the shared cache during this run *)
  used_slices : (string * string list) list;
      (* per imported interface, the exported names this compilation
         actually resolved (or failed to resolve) there — the
         fine-grained dependency record Project's slice-level
         invalidation keys on; sorted, deterministic *)
  log : Evlog.record array; (* captured event log ([||] unless ~capture:true) *)
  events_logged : int;
  telemetry : Metrics.snapshot option; (* metrics registry dump (None unless ~telemetry:true) *)
  perturb_seed : int option; (* the config's exploration seed, echoed back *)
  robustness : robustness;
  deadlock : string list;
      (* the engine's deadlock report (blocked-task wait graph) when the
         run quiesced with tasks parked; [] on a clean run *)
}

(* Procedure bodies at least this big go to the long-procedure
   code-generation class (paper §2.3.4). *)
let long_threshold = 64

(* ------------------------------------------------------------------ *)
(* Shared per-compilation state *)

type comp = {
  cfg : config;
  store : Source_store.t;
  diags : Diag.t;
  stats : Lookup_stats.t;
  registry : Modreg.t;
  merger : Cunit.merger;
  cache : Build_cache.t option;
  (* per-compilation fingerprint memo; [fp_mu] guards the whole recursive
     computation (which never yields), so concurrent importers agree *)
  fp_memo : (string, string) Hashtbl.t;
  fp_mu : Mutex.t;
  mutable cache_hits : string list; (* interfaces installed from the cache *)
  mutable cache_misses : string list; (* interfaces fingerprinted but compiled *)
  missing : (string, unit) Hashtbl.t; (* interfaces with no source *)
  missing_mu : Mutex.t;
  streams : (int, Stream.proc_stream) Hashtbl.t;
  streams_mu : Mutex.t;
  mutable next_stream : int;
  mutable n_defs : int;
  mutable n_tasks : int;
  mutable task_names : (int * string * string) list; (* reversed (id, class, name) *)
  tasks_mu : Mutex.t;
  (* completion accounting: splitter hold + module body + per procedure
     stream + per definition-module stream; 0 => signal all_done *)
  mutable pending : int;
  pending_mu : Mutex.t;
  all_done : Event.t;
  mutable program : Cunit.program option;
  mutable total_tokens : int;
  mutable source_retries : int; (* injected source-read errors retried *)
}

let hold comp =
  Mutex.lock comp.pending_mu;
  comp.pending <- comp.pending + 1;
  Mutex.unlock comp.pending_mu

let release comp =
  Mutex.lock comp.pending_mu;
  comp.pending <- comp.pending - 1;
  let zero = comp.pending = 0 in
  Mutex.unlock comp.pending_mu;
  if zero then Eff.signal comp.all_done

let record_task comp (task : Task.t) =
  Mutex.lock comp.tasks_mu;
  comp.n_tasks <- comp.n_tasks + 1;
  comp.task_names <- (task.Task.id, Task.cls_name task.Task.cls, task.Task.name) :: comp.task_names;
  Mutex.unlock comp.tasks_mu;
  if Metrics.enabled () then
    Metrics.incr ~labels:[ ("cls", Task.cls_name task.Task.cls) ] "mcc_tasks_total"

let spawn comp task =
  record_task comp task;
  Eff.spawn task

let fresh_stream_id comp =
  Mutex.lock comp.streams_mu;
  let id = comp.next_stream in
  comp.next_stream <- id + 1;
  Mutex.unlock comp.streams_mu;
  id

let register_stream comp (ps : Stream.proc_stream) =
  Mutex.lock comp.streams_mu;
  Hashtbl.replace comp.streams ps.Stream.ps_id ps;
  Mutex.unlock comp.streams_mu

let find_stream comp id =
  Mutex.lock comp.streams_mu;
  let r = Hashtbl.find_opt comp.streams id in
  Mutex.unlock comp.streams_mu;
  r

let mark_missing comp name =
  Mutex.lock comp.missing_mu;
  Hashtbl.replace comp.missing name ();
  Mutex.unlock comp.missing_mu

let is_missing comp name =
  Mutex.lock comp.missing_mu;
  let r = Hashtbl.mem comp.missing name in
  Mutex.unlock comp.missing_mu;
  r

let count_tokens comp q =
  Mutex.lock comp.tasks_mu;
  comp.total_tokens <- comp.total_tokens + Tokq.total_tokens q;
  Mutex.unlock comp.tasks_mu;
  if Metrics.enabled () then
    Metrics.count "mcc_tokens_total" (float_of_int (Tokq.total_tokens q))

(* ------------------------------------------------------------------ *)
(* Definition-module streams *)

(* The once-only table (paper §3): "A 'once-only' table is used to
   guarantee that each definition module referenced in a compilation is
   processed exactly once."  [Modreg.intern] is that table; the creator
   spawns the stream — or, on a build-cache hit, installs the interface
   artifact right here, paying only the hash + probe + install charges,
   and signals the interface's avoided event instead of spawning its
   Lexor/Importer/DefParse tasks. *)
(* A poisoned import stream: the importer dies before its scan.  Safe to
   contain as a plain task failure — importers are pure prefetchers (the
   parser's own import callback re-derives every import), so the program
   is unaffected; the failure is recorded and counted as contained. *)
let poison_check name =
  if Fault.armed () && Fault.poison_import ~name then begin
    if Evlog.enabled () then
      Evlog.emit (Evlog.Fault_inject { fault = "poison-import"; victim = name });
    raise (Fault.Injected name)
  end

(* Read an interface's source, surviving injected source-store read
   errors: a transient error is retried after a virtual-time backoff
   (charged through Costs — recovery is not free), up to
   [Costs.retry_limit] attempts; a permanent one degrades to a precise
   diagnostic and the missing-interface path, never a hang. *)
let read_def comp name =
  let rec go attempt =
    if Fault.armed () && Fault.source_error ~name then begin
      if Evlog.enabled () then
        Evlog.emit (Evlog.Fault_inject { fault = "source-error"; victim = name });
      if attempt < Costs.retry_limit then begin
        Mutex.lock comp.tasks_mu;
        comp.source_retries <- comp.source_retries + 1;
        Mutex.unlock comp.tasks_mu;
        Eff.work Costs.retry_backoff;
        go (attempt + 1)
      end
      else begin
        Diag.error comp.diags ~file:(Source_store.def_file name) ~loc:Loc.none
          (Printf.sprintf "cannot read interface %s: injected I/O error (gave up after %d attempts)"
             name Costs.retry_limit);
        None
      end
    end
    else Source_store.def_src comp.store name
  in
  go 0

let rec ensure_def comp name : Symtab.t option =
  let scope, created = Modreg.intern comp.registry name in
  if created then begin
    match read_def comp name with
    | None ->
        mark_missing comp name;
        (* complete the empty scope so no searcher waits forever *)
        Symtab.mark_complete scope;
        None
    | Some src ->
        hold comp (* released when the interface's analysis finishes *);
        (match comp.cache with
        | None -> spawn_def_stream comp name scope src ~fp:None
        | Some cache -> (
            (* the fingerprint computation never yields, so holding the
               memo lock across it cannot block the cooperative engine *)
            Mutex.lock comp.fp_mu;
            let fp, units =
              Build_cache.interface_fp cache ~memo:comp.fp_memo ~store:comp.store name
            in
            Mutex.unlock comp.fp_mu;
            Eff.work (units + Costs.cache_probe);
            match Build_cache.find_interface cache ~fp with
            | Some art ->
                Mutex.lock comp.tasks_mu;
                comp.cache_hits <- name :: comp.cache_hits;
                Mutex.unlock comp.tasks_mu;
                (* first ensure what the skipped importer would have:
                   transitively reached interfaces must register and
                   contribute their frames exactly as they would cold *)
                List.iter (fun m -> ignore (ensure_def comp m)) art.Artifact.a_imports;
                Artifact.install art ~scope ~merger:comp.merger ~diags:comp.diags;
                release comp
            | None ->
                Mutex.lock comp.tasks_mu;
                comp.cache_misses <- name :: comp.cache_misses;
                Mutex.unlock comp.tasks_mu;
                spawn_def_stream comp name scope src ~fp:(Some fp)));
        Some scope
  end
  else if is_missing comp name then None
  else Some scope

and spawn_def_stream comp name scope src ~fp =
  Mutex.lock comp.tasks_mu;
  comp.n_defs <- comp.n_defs + 1;
  Mutex.unlock comp.tasks_mu;
  let file = Source_store.def_file name in
  let frame_key = name ^ "!def" in
  let q = Tokq.create ~name:("def:" ^ name) () in
  let lexor =
    Task.create ~cls:Task.Lexor ~name:("lexor:" ^ file) (fun () ->
        let lx = Lexer.create ~file src in
        let rec go () =
          let tok = Lexer.next lx in
          Tokq.put q tok;
          if not (Token.is_eof tok) then go ()
        in
        go ();
        Tokq.close q;
        count_tokens comp q)
  in
  let importer =
    Task.create ~cls:Task.Importer ~name:("importer:" ^ file) (fun () ->
        poison_check ("importer:" ^ file);
        Stream.run_importer ~rd:(Tokq.reader q) ~on_import:(fun m -> ignore (ensure_def comp m)))
  in
  let parse =
    Task.create ~cls:Task.DefParse ~name:("defparse:" ^ file) (fun () ->
        (* the interface's diagnostics are collected locally so that a
           capture can replay them on later cache hits; they merge into
           the compilation's collector either way (the final report is
           sorted, so collection order is immaterial) *)
        let local = Diag.create () in
        let imports = ref [] in
        let ctx =
          Ctx.make ~scope ~file ~diags:local ~strategy:comp.cfg.strategy ~stats:comp.stats
            ~registry:comp.registry ~frame_key ~path:name ~is_module_level:true ~is_def:true
        in
        let cb = callbacks comp in
        let cb =
          {
            cb with
            P.cb_import =
              (fun ctx mid ->
                let m = mid.A.name in
                if not (List.mem m !imports) then imports := m :: !imports;
                cb.P.cb_import ctx mid);
          }
        in
        let p = P.create ~cb (Tokq.reader q) in
        P.parse_def_module ctx p ~expected_name:name;
        let _, slots, size = Emit.frame_layout scope ~frame_key ~size:ctx.Ctx.next_slot in
        Cunit.add_frame comp.merger frame_key slots size;
        let diags = Diag.sorted local in
        List.iter (Diag.add_d comp.diags) diags;
        (match (comp.cache, fp) with
        | Some cache, Some fp ->
            Build_cache.store_interface cache
              (Artifact.capture ~name ~fingerprint:fp ~imports:(List.rev !imports) ~scope
                 ~frame:{ Artifact.f_key = frame_key; f_slots = slots; f_size = size }
                 ~diags)
        | _ -> ());
        release comp)
  in
  Symtab.set_producer scope parse.Task.id;
  spawn comp lexor;
  spawn comp importer;
  spawn comp parse

(* ------------------------------------------------------------------ *)
(* Parser callbacks for all concurrent streams *)

and callbacks comp : P.callbacks =
  {
    P.cb_import =
      (fun _ctx (mid : A.ident) ->
        match ensure_def comp mid.A.name with
        | None -> None
        | Some scope ->
            (* Avoidance strategy: never let a search reach an incomplete
               table — wait for the interface here, before any reference
               can be made (paper §2.2). *)
            if comp.cfg.strategy = Symtab.Avoidance then
              Eff.wait (Symtab.completion_event scope);
            Some scope);
    P.cb_heading =
      (fun _ctx info ~stream ->
        match find_stream comp stream with
        | None -> () (* unreachable: streams register before their mark *)
        | Some ps ->
            ps.Stream.ps_heading <- Some info;
            Eff.signal ps.Stream.ps_gate);
    P.cb_body =
      (fun gj ->
        (* the module body's frame must be merged before its unit can
           release the completion count *)
        (if gj.P.gj_sig = None then
           let ctx = gj.P.gj_ctx in
           let fk = ctx.Ctx.frame_key in
           let _, slots, size = Emit.frame_layout ctx.Ctx.scope ~frame_key:fk ~size:ctx.Ctx.next_slot in
           Cunit.add_frame comp.merger fk slots size);
        let cls = if gj.P.gj_size >= long_threshold then Task.LongGen else Task.ShortGen in
        spawn comp
          (Task.create ~cls ~size_hint:gj.P.gj_size ~name:("gen:" ^ gj.P.gj_key) (fun () ->
               let u = Emit.emit_job gj in
               Cunit.add_unit comp.merger u;
               release comp)));
  }

(* ------------------------------------------------------------------ *)
(* Procedure streams *)

let spawn_proc_parse comp (ps : Stream.proc_stream) =
  let gate =
    match (comp.cfg.strategy, comp.cfg.heading) with
    | Symtab.Avoidance, _ ->
        (* semantic analysis of a scope starts only after its parent
           scope's declaration analysis completes *)
        Option.map Symtab.completion_event ps.Stream.ps_scope.Symtab.parent
    | _, Alt1 -> Some ps.Stream.ps_gate
    | _, Alt3 -> None
  in
  let task =
    Task.create ~cls:Task.ProcParse ?gate ~name:("procparse:" ^ ps.Stream.ps_path) (fun () ->
        let ctx =
          Ctx.make ~scope:ps.Stream.ps_scope ~file:(Source_store.main_file comp.store)
            ~diags:comp.diags ~strategy:comp.cfg.strategy ~stats:comp.stats
            ~registry:comp.registry ~frame_key:"" ~path:ps.Stream.ps_path ~is_module_level:false
            ~is_def:false
        in
        let p = P.create ~cb:(callbacks comp) (Tokq.reader ps.Stream.ps_q) in
        let heading =
          match comp.cfg.heading with
          | Alt1 -> ps.Stream.ps_heading (* gate guarantees presence *)
          | Alt3 -> None
        in
        (* under Avoidance + Alt3 the heading may be available anyway;
           Alt3 semantics is to re-derive it regardless *)
        P.parse_proc_stream ctx p ~heading ~key:ps.Stream.ps_path)
  in
  Symtab.set_producer ps.Stream.ps_scope task.Task.id;
  spawn comp task

(* ------------------------------------------------------------------ *)
(* Compilation *)

(* Build the per-compilation state and the bootstrap task that wires the
   whole task graph of Fig. 5; shared by both execution engines. *)
let prepare config cache (store : Source_store.t) =
  let m = Source_store.main_name store in
  let comp =
    {
      cfg = config;
      store;
      diags = Diag.create ();
      stats = Lookup_stats.create ();
      registry = Modreg.create ();
      merger = Cunit.merger ();
      cache;
      fp_memo = Hashtbl.create 16;
      fp_mu = Mutex.create ();
      cache_hits = [];
      cache_misses = [];
      missing = Hashtbl.create 8;
      missing_mu = Mutex.create ();
      streams = Hashtbl.create 32;
      streams_mu = Mutex.create ();
      next_stream = 1;
      n_defs = 0;
      n_tasks = 0;
      task_names = [];
      tasks_mu = Mutex.create ();
      pending = 2 (* splitter hold + module body *);
      pending_mu = Mutex.create ();
      all_done = Event.create ~kind:Event.Handled "all-units-done";
      program = None;
      total_tokens = 0;
      source_retries = 0;
    }
  in
  (* The compiler optimistically anticipates the existence of M.def
     (paper §3): its scope, when present, is the parent of the main
     module's scope. *)
  let init_tasks = ref [] in
  let initial task = init_tasks := task :: !init_tasks in

  (* this runs as the first task so every spawn happens inside the engine *)
  let bootstrap () =
    let own_def =
      if Source_store.has_def store m then ensure_def comp m else None
    in
    let main_scope = Symtab.create ?parent:own_def (Symtab.KMain m) in
    let mod_ctx =
      Ctx.make ~scope:main_scope ~file:(Source_store.main_file store) ~diags:comp.diags
        ~strategy:config.strategy ~stats:comp.stats ~registry:comp.registry ~frame_key:m ~path:m
        ~is_module_level:true ~is_def:false
    in
    let raw_q = Tokq.create ~name:("mod:" ^ m) () in
    let stripped_q = Tokq.create ~name:("mod-stripped:" ^ m) () in
    let lexor =
      Task.create ~cls:Task.Lexor ~name:("lexor:" ^ Source_store.main_file store) (fun () ->
          let lx = Lexer.create ~file:(Source_store.main_file store) (Source_store.main_src store) in
          let rec go () =
            let tok = Lexer.next lx in
            Tokq.put raw_q tok;
            if not (Token.is_eof tok) then go ()
          in
          go ();
          Tokq.close raw_q;
          count_tokens comp raw_q)
    in
    let splitter =
      Task.create ~cls:Task.Splitter ~name:("splitter:" ^ m) (fun () ->
          Stream.run_splitter ~rd:(Tokq.reader raw_q) ~out:stripped_q ~root_scope:main_scope
            ~root_path:m
            ~next_id:(fun () -> fresh_stream_id comp)
            ~on_stream:(fun ps ->
              register_stream comp ps;
              hold comp (* released by the stream's code generator *);
              spawn_proc_parse comp ps);
          release comp (* the splitter hold *))
    in
    let importer =
      Task.create ~cls:Task.Importer ~name:("importer:" ^ m) (fun () ->
          poison_check ("importer:" ^ m);
          Stream.run_importer ~rd:(Tokq.reader raw_q) ~on_import:(fun name ->
              ignore (ensure_def comp name)))
    in
    let modparse =
      Task.create ~cls:Task.ModParse ~name:("modparse:" ^ m) (fun () ->
          (* under Avoidance, the module's own interface is this scope's
             parent and must be complete before analysis starts *)
          (match (config.strategy, own_def) with
          | Symtab.Avoidance, Some d -> Eff.wait (Symtab.completion_event d)
          | _ -> ());
          let p = P.create ~cb:(callbacks comp) (Tokq.reader stripped_q) in
          P.parse_impl_module mod_ctx p ~expected_name:m)
    in
    Symtab.set_producer main_scope modparse.Task.id;
    let merge =
      Task.create ~cls:Task.Merge ~gate:comp.all_done ~name:("merge:" ^ m) (fun () ->
          comp.program <- Some (Cunit.finish comp.merger ~entry:m))
    in
    List.iter (spawn comp) [ lexor; splitter; importer; modparse; merge ]
  in
  initial (Task.create ~cls:Task.Aux ~name:"bootstrap" bootstrap);
  (comp, List.rev !init_tasks)

let finish_program comp ~entry =
  match comp.program with
  | Some p -> p
  | None -> Cunit.link ~entry ~frames:[] [] (* deadlock: empty program *)

(* Compile on the deterministic simulated multiprocessor.  The engine
   runs in an observation context of its own (see Mcc_obs.Evlog), so
   nothing it emits reaches an enclosing capture.  [~capture] records
   the structured concurrency event log for the happens-before
   analyzer; [~telemetry] accumulates the virtual-time metrics registry
   over the run.  The default context records nothing, and neither
   option perturbs virtual time. *)
let compile ?(config = default_config) ?(capture = false) ?(telemetry = false) ?cache
    (store : Source_store.t) : result =
  let m = Source_store.main_name store in
  let comp, init_tasks = prepare config cache store in
  let corrupt0 = match cache with Some c -> Build_cache.corrupt_count c | None -> 0 in
  let evict0 = match cache with Some c -> Build_cache.eviction_count c | None -> 0 in
  let run () =
    Des_engine.run ~beta:config.beta ~fifo:config.fifo_sched ?perturb:config.perturb
      ~procs:config.procs init_tasks
  in
  let run () =
    (* arm the configured fault plan around the engine run only; an
       externally armed plan (the explorer's) stays in force otherwise *)
    if config.faults = [] then run ()
    else Fault.with_plan (Fault.plan ~seed:config.fault_seed config.faults) run
  in
  let obs = Evlog.ctx ~log:capture ~metrics:telemetry () in
  let sim = Evlog.within obs run in
  (* Partition task failures: injected ones are the fault plan's doing
     and are recovered from (contained, or repaired below); real
     exceptions keep their compiler-bug diagnostics. *)
  let injected_failures, real_failures =
    List.partition
      (fun (_, e) -> match e with Fault.Injected _ -> true | _ -> false)
      sim.Des_engine.failures
  in
  List.iter
    (fun (name, e) ->
      Diag.error comp.diags ~file:name ~loc:Loc.none
        (Printf.sprintf "compiler task failed: %s" (Printexc.to_string e)))
    real_failures;
  (* Self-healing: when injected faults cost us the merged program (a
     quarantined stream never released the completion count, or the
     merge task itself was lost), degrade gracefully — recompile the
     whole program on the sequential path, which by construction
     produces byte-identical object code and diagnostics to a
     fault-free concurrent run.  A deadlock with no faults in play
     keeps its genuine diagnostic. *)
  let fallback = comp.program = None && sim.Des_engine.injected > 0 in
  let seq_result =
    (* in an empty context, so its lookups reach no enclosing log *)
    if fallback then Some (Evlog.within (Evlog.ctx ()) (fun () -> Seq_driver.compile store))
    else None
  in
  (match sim.Des_engine.outcome with
  | Des_engine.Completed -> ()
  | Des_engine.Deadlocked _ when fallback || sim.Des_engine.injected > 0 ->
      (* fault debris, not a circular-import bug: the report is still
         surfaced through [result.deadlock] *)
      ()
  | Des_engine.Deadlocked stuck ->
      Diag.error comp.diags ~file:(Source_store.main_file store) ~loc:Loc.none
        (Printf.sprintf "compilation deadlocked (circular imports?): %s"
           (String.concat "; " stuck)));
  let program, diags, ok =
    match seq_result with
    | Some (seq : Seq_driver.result) -> (seq.Seq_driver.program, seq.Seq_driver.diags, seq.Seq_driver.ok)
    | None ->
        let program = finish_program comp ~entry:m in
        (program, Diag.sorted comp.diags, not (Diag.has_errors comp.diags))
  in
  let robustness =
    {
      r_injected = sim.Des_engine.injected;
      r_retries = sim.Des_engine.retries;
      r_quarantined = sim.Des_engine.quarantined;
      r_stalls = sim.Des_engine.stalls;
      r_watchdog_fires = sim.Des_engine.watchdog_fires;
      r_recovered_wakes = sim.Des_engine.recovered_wakes;
      r_corrupt_rebuilds =
        (match cache with Some c -> Build_cache.corrupt_count c - corrupt0 | None -> 0);
      r_source_retries = comp.source_retries;
      r_contained = List.length injected_failures;
      r_seq_fallbacks = (if fallback then 1 else 0);
    }
  in
  let n_procs = Hashtbl.length comp.streams in
  let log = Evlog.log obs in
  {
    program;
    diags;
    ok;
    sim;
    stats = comp.stats;
    n_proc_streams = n_procs;
    n_def_streams = comp.n_defs;
    n_streams = 1 + n_procs + comp.n_defs;
    n_tasks = comp.n_tasks;
    tokens = comp.total_tokens;
    task_list = List.rev_map (fun (_, cls, name) -> (cls, name)) comp.task_names;
    task_index = List.rev_map (fun (id, _, name) -> (id, name)) comp.task_names;
    cache_hits = List.sort compare comp.cache_hits;
    cache_misses = List.sort compare comp.cache_misses;
    cache_evictions =
      (match cache with Some c -> Build_cache.eviction_count c - evict0 | None -> 0);
    used_slices = Lookup_stats.used_slices comp.stats;
    log;
    events_logged = Array.length log;
    telemetry = (if telemetry then Some (Metrics.snapshot obs) else None);
    perturb_seed = config.perturb;
    robustness;
    deadlock =
      (match sim.Des_engine.outcome with
      | Des_engine.Deadlocked stuck -> stuck
      | Des_engine.Completed -> []);
  }

(* Render the instantiated task structure (the realization of the
   paper's Figure 5 for this compilation), grouped by task class in
   Supervisor priority order. *)
let dump_tasks (r : result) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun cls ->
      let name = Task.cls_name cls in
      let members = List.filter (fun (c, _) -> c = name) r.task_list in
      if members <> [] then begin
        Buffer.add_string buf (Printf.sprintf "%-10s (%d)\n" name (List.length members));
        List.iter (fun (_, n) -> Buffer.add_string buf (Printf.sprintf "    %s\n" n))
          (List.sort compare members)
      end)
    [ Task.Lexor; Task.Splitter; Task.Importer; Task.DefParse; Task.ModParse; Task.ProcParse;
      Task.LongGen; Task.ShortGen; Task.Merge; Task.Aux ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Real shared-memory execution: the same task graph on OCaml domains. *)

type domain_result = {
  d_program : Cunit.program;
  d_diags : Diag.d list;
  d_ok : bool;
  d_wall_seconds : float;
  d_tasks_run : int;
  d_deadlocked : bool;
  d_stats : Lookup_stats.t;
}

let compile_domains ?(config = default_config) ?cache ~domains (store : Source_store.t) :
    domain_result =
  let m = Source_store.main_name store in
  let comp, init_tasks = prepare config cache store in
  (* an empty context: no domain appends to an enclosing log *)
  let r = Evlog.within (Evlog.ctx ()) (fun () -> Domain_engine.run ~domains init_tasks) in
  let deadlocked = match r.Domain_engine.outcome with Domain_engine.Deadlocked _ -> true | _ -> false in
  if deadlocked then
    Diag.error comp.diags ~file:(Source_store.main_file store) ~loc:Loc.none
      "compilation deadlocked (circular imports?)";
  List.iter
    (fun (name, e) ->
      Diag.error comp.diags ~file:name ~loc:Loc.none
        (Printf.sprintf "compiler task failed: %s" (Printexc.to_string e)))
    r.Domain_engine.failures;
  {
    d_program = finish_program comp ~entry:m;
    d_diags = Diag.sorted comp.diags;
    d_ok = not (Diag.has_errors comp.diags);
    d_wall_seconds = r.Domain_engine.wall_seconds;
    d_tasks_run = r.Domain_engine.tasks_run;
    d_deadlocked = deadlocked;
    d_stats = comp.stats;
  }
