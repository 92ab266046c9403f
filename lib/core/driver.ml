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
  tokq_block : int; (* tokens per token-queue block (the paper's 64) *)
  tokq_barrier : bool; (* ablation: barrier token-queue events, the paper's choice *)
  perturb : int option;
      (* schedule-exploration seed: randomize ready-queue tie-breaking
         (see Supervisor.create); None = the canonical schedule *)
  faults : Fault.spec list;
      (* fault plan armed around the engine run; [] = none of its own
         (the enclosing run's plan, e.g. the farm's, stays armed) *)
  fault_seed : int; (* seed deriving the plan's firing decisions *)
}

let default_config =
  {
    strategy = Symtab.Skeptical;
    heading = Alt1;
    procs = 8;
    beta = Costs.bus_beta;
    fifo_sched = false;
    tokq_block = 64;
    tokq_barrier = false;
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
  cache_hits : string list; (* interfaces installed from the build cache, sorted *)
  cache_misses : string list; (* interfaces fingerprinted but compiled cold, sorted *)
  used_slices : (string * string list) list;
      (* per imported interface, the exported names this compilation
         actually resolved (or failed to resolve) there — the
         fine-grained dependency record Project's slice-level
         invalidation keys on; sorted, deterministic *)
  log : Evlog.record array; (* captured event log ([||] unless ~capture:true) *)
  telemetry : Metrics.snapshot option; (* metrics registry dump (None unless ~telemetry:true) *)
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
  cache : Build_cache.graph option; (* the build's graph, over its cache *)
  (* the interfaces whose hashing this compilation charged; [fp_mu]
     guards the whole walk (which never yields) *)
  fp_seen : (string, unit) Hashtbl.t;
  fp_mu : Mutex.t;
  foreign : string option Atomic.t; (* an interface the graph holds another text of *)
  mutable cache_hits : string list; (* interfaces installed from the cache *)
  mutable cache_misses : string list; (* interfaces fingerprinted but compiled *)
  missing : (string, unit) Hashtbl.t; (* interfaces with no source *)
  missing_mu : Mutex.t;
  streams : (int, Stream.proc_stream) Hashtbl.t;
  streams_mu : Mutex.t;
  mutable next_stream : int;
  mutable n_defs : int;
  mutable n_tasks : int;
  mutable task_names : (string * string) list; (* reversed (class, name) *)
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

(* Give back a hold; true when it was the last one. *)
let unhold comp =
  Mutex.lock comp.pending_mu;
  comp.pending <- comp.pending - 1;
  let zero = comp.pending = 0 in
  Mutex.unlock comp.pending_mu;
  zero

let release comp = if unhold comp then Eff.signal comp.all_done

(* Give back a hold that guarded no work: no charge, and [all_done] is
   signaled only if this was the last hold and it has not occurred. *)
let drop comp = if unhold comp && not (Event.occurred comp.all_done) then Eff.signal comp.all_done

let record_task comp (task : Task.t) =
  Mutex.lock comp.tasks_mu;
  comp.n_tasks <- comp.n_tasks + 1;
  comp.task_names <- (Task.cls_name task.Task.cls, task.Task.name) :: comp.task_names;
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

let new_queue comp ~src ~name =
  Tokq.create ~src ~block_size:comp.cfg.tokq_block ~barrier:comp.cfg.tokq_barrier ~name

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
  if Fault.armed () && Fault.fires Fault.Poison_import name then begin
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
    if Fault.armed () && Fault.fires Fault.Source_error name then begin
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
  (* The hold is taken before the once-only table is consulted: a
     second stream that finds [name] interned while its creator is
     still reading the source must not be able to release the last
     hold, or the merge would link without this interface's frame. *)
  hold comp;
  let scope, created = Modreg.intern comp.registry name in
  if created then begin
    match read_def comp name with
    | None ->
        mark_missing comp name;
        (* complete the empty scope so no searcher waits forever *)
        Symtab.mark_complete scope;
        drop comp;
        None
    | Some src ->
        (* the hold is released when the interface's analysis finishes *)
        (match Option.map (fun g -> (g, Build_cache.def_fingerprint g name src)) comp.cache with
        | None -> spawn_def_stream comp name scope src ~fp:None
        | Some (_, None) ->
            (* the graph is another store's: the compile raises when it
               ends, and the interface stays empty until then *)
            Atomic.set comp.foreign (Some name);
            Symtab.mark_complete scope;
            drop comp
        | Some (g, Some fp) -> (
            (* the walk never yields, so holding the lock across it
               cannot block the cooperative engine *)
            Mutex.lock comp.fp_mu;
            let units = Build_cache.closure_units g ~seen:comp.fp_seen name in
            Mutex.unlock comp.fp_mu;
            Eff.work (units + Costs.cache_probe);
            match Build_cache.find_interface (Build_cache.graph_cache g) ~fp with
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
  else begin
    drop comp;
    if is_missing comp name then None else Some scope
  end

and spawn_def_stream comp name scope src ~fp =
  Mutex.lock comp.tasks_mu;
  comp.n_defs <- comp.n_defs + 1;
  Mutex.unlock comp.tasks_mu;
  let file = Source_store.def_file name in
  let frame_key = name ^ "!def" in
  let q = new_queue comp ~src ~name:("def:" ^ name) in
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
        | Some g, Some fp when Atomic.get comp.foreign = None ->
            Build_cache.store_interface ~checked:true (Build_cache.graph_cache g) ~fp
              ~source:(Option.get (Build_cache.interface_digest g name))
              (Artifact.capture ~name ~imports:(List.rev !imports) ~scope
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
        let cb = callbacks comp in
        let cb =
          (* a redeclared procedure is parsed for its diagnostics, but
             the first declaration of its path owns the code unit *)
          if ps.Stream.ps_redeclared then { cb with P.cb_body = (fun _ -> release comp) } else cb
        in
        let p = P.create ~cb (Tokq.reader ps.Stream.ps_q) in
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
      fp_seen = Hashtbl.create 16;
      fp_mu = Mutex.create ();
      foreign = Atomic.make None;
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
    let main_src = Source_store.main_src store in
    let raw_q = new_queue comp ~src:main_src ~name:("mod:" ^ m) in
    let stripped_q = new_queue comp ~src:main_src ~name:("mod-stripped:" ^ m) in
    let lexor =
      Task.create ~cls:Task.Lexor ~name:("lexor:" ^ Source_store.main_file store) (fun () ->
          let lx = Lexer.create ~file:(Source_store.main_file store) main_src in
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

(* A compile given another store's graph ends here. *)
let check_graph comp =
  Option.iter
    (fun name -> invalid_arg ("Driver: the build graph holds another text of interface " ^ name))
    (Atomic.get comp.foreign)

(* Both engines' diagnostic for a run that ended with tasks stuck. *)
let deadlock_error comp store stuck =
  Diag.error comp.diags ~file:(Source_store.main_file store) ~loc:Loc.none
    (Printf.sprintf "compilation deadlocked (circular imports?): %s" (String.concat "; " stuck))

(* Compile on the deterministic simulated multiprocessor.  The compile
   runs in an observation context of its own (see Mcc_obs.Evlog), so
   nothing it emits reaches an enclosing capture, and its event, task
   and scope ids count from 0 whatever ran before.  [~capture] records
   the structured concurrency event log for the happens-before
   analyzer; [~telemetry] accumulates the virtual-time metrics registry
   over the run.  The default context records nothing, and neither
   option perturbs virtual time. *)
let compile ?(config = default_config) ?(capture = false) ?(telemetry = false) ?cache
    (store : Source_store.t) : result =
  let m = Source_store.main_name store in
  let bc = Option.map Build_cache.graph_cache cache in
  let corrupt0 = match bc with Some c -> Build_cache.corrupt_count c | None -> 0 in
  let obs = Evlog.ctx ~log:capture ~metrics:telemetry () in
  (* the configured fault plan is armed for the engine run only; with
     none configured the enclosing run's plan (the farm's) stays armed *)
  let faults =
    if config.faults = [] then None else Some (Fault.plan ~seed:config.fault_seed config.faults)
  in
  (* [prepare] runs in the compile's context too, so every event, task
     and scope id of the compile comes from one set of counters *)
  let comp, sim =
    Evlog.within ~obs ?faults (fun () ->
        let comp, init_tasks = prepare config cache store in
        ( comp,
          Des_engine.run ~beta:config.beta ~fifo:config.fifo_sched ?perturb:config.perturb
            ~procs:config.procs init_tasks ))
  in
  check_graph comp;
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
  let seq_result = if fallback then Some (Seq_driver.compile store) else None in
  (match sim.Des_engine.outcome with
  | Des_engine.Completed -> ()
  | Des_engine.Deadlocked _ when fallback || sim.Des_engine.injected > 0 ->
      (* fault debris, not a circular-import bug: the report is still
         surfaced through [result.deadlock] *)
      ()
  | Des_engine.Deadlocked stuck -> deadlock_error comp store stuck);
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
        (match bc with Some c -> Build_cache.corrupt_count c - corrupt0 | None -> 0);
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
    task_list = List.rev comp.task_names;
    cache_hits = List.sort compare comp.cache_hits;
    cache_misses = List.sort compare comp.cache_misses;
    used_slices = Lookup_stats.used_slices comp.stats;
    log;
    telemetry = (if telemetry then Some (Metrics.snapshot obs) else None);
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
}

let compile_domains ?(config = default_config) ?cache ~domains (store : Source_store.t) :
    domain_result =
  let m = Source_store.main_name store in
  let comp, r =
    Evlog.within ~obs:(Evlog.ctx ()) (fun () ->
        let comp, init_tasks = prepare config cache store in
        (comp, Domain_engine.run ~domains init_tasks))
  in
  check_graph comp;
  let deadlocked =
    match r.Domain_engine.outcome with
    | Domain_engine.Deadlocked stuck ->
        deadlock_error comp store stuck;
        true
    | Domain_engine.Completed -> false
  in
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
  }
