(* m2c — the concurrent Modula-2+ compiler, as a command-line tool.

   Compiles M.mod (with sibling .def interfaces from the same directory)
   on the simulated multiprocessor, the real domain engine, or the
   sequential baseline, and optionally executes the result in the VM.

     m2c compile Foo.mod --procs 8 --strategy skeptical --watch
     m2c compile Foo.mod --cache .m2c-cache   # reuse interface artifacts
     m2c compile Foo.mod --trace-json t.json  # Chrome trace_event export
     m2c compile Foo.mod --inject task-crash@2 --fault-seed 7  # self-healing
     m2c profile Foo.mod --top 5 --prom m.prom --json m.json   # telemetry
     m2c build Foo.mod            # incremental whole-program build
     m2c run Foo.mod --input 1,2,3
     m2c sweep Foo.mod            # speedup on 1..8 processors
     m2c analyze Foo.mod --schedules 16 --seed 7   # happens-before check
     m2c analyze --synth 1 --inject-early-publish M01L0.def *)

open Cmdliner
open Mcc_core
module Symtab = Mcc_sem.Symtab
module Fault = Mcc_sched.Fault

(* the bundled library (Strings, MathLib, InOut, Bits) is available
   unless the program provides its own module of the same name; every
   load error names the file *)
let load path =
  match Cliopt.load_module path with Ok store -> `Ok store | Error e -> `Error (false, e)

let strategy_conv =
  let parse s =
    match s with
    | "avoidance" -> Ok Symtab.Avoidance
    | "pessimistic" -> Ok Symtab.Pessimistic
    | "skeptical" -> Ok Symtab.Skeptical
    | "optimistic" -> Ok Symtab.Optimistic
    | _ -> Error (`Msg "strategy must be avoidance|pessimistic|skeptical|optimistic")
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Symtab.dky_name s))

let file_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"FILE.mod" ~doc:"Implementation module to compile.")

let file_opt_arg =
  Arg.(
    value & pos 0 (some string) None
    & info [] ~docv:"FILE.mod" ~doc:"Implementation module (or use $(b,--synth)).")

let synth_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "synth" ] ~docv:"RANK"
        ~doc:"Use synthetic suite program $(docv) (0-based) instead of a file.")

(* FILE.mod / --synth selection shared by compile and analyze *)
let with_store file synth k =
  match (file, synth) with
  | Some _, Some _ -> `Error (false, "give either FILE.mod or --synth RANK, not both")
  | None, None -> `Error (false, "give FILE.mod or --synth RANK")
  | None, Some rank ->
      if rank < 0 || rank >= Mcc_synth.Suite.n_programs then
        `Error
          (false, Printf.sprintf "--synth must be in 0..%d" (Mcc_synth.Suite.n_programs - 1))
      else k (Mcc_synth.Suite.program rank)
  | Some f, None -> ( match load f with `Ok store -> k store | `Error _ as e -> e)

let procs_arg =
  Arg.(value & opt int 8 & info [ "p"; "procs" ] ~docv:"N" ~doc:"Simulated processors (1-64).")

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Symtab.Skeptical
    & info [ "s"; "strategy" ] ~docv:"S"
        ~doc:"DKY strategy: avoidance, pessimistic, skeptical or optimistic.")

let heading_arg =
  Arg.(
    value & opt int 1
    & info [ "heading" ] ~docv:"ALT"
        ~doc:
          "Procedure-heading information flow: 1 (parent copies entries) or 3 (both scopes \
           process it).")

let watch_arg =
  Arg.(value & flag & info [ "watch" ] ~doc:"Render the WatchTool processor-activity view.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print identifier-lookup statistics (Table 2).")

let disasm_arg = Arg.(value & flag & info [ "disasm" ] ~doc:"Disassemble the linked program.")

let dump_tasks_arg =
  Arg.(
    value & flag
    & info [ "dump-tasks" ] ~doc:"Print the instantiated compiler task structure (Fig. 5).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N" ~doc:"Compile on N real OCaml domains instead of the simulator.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:"Load interface artifacts from $(docv) and persist them back after compiling.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the interface/build cache.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"PATH"
        ~doc:
          "Write the simulated execution trace to $(docv) in Chrome trace_event JSON (load in \
           chrome://tracing or ui.perfetto.dev).  Simulator only.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPECS"
        ~doc:
          "Arm a deterministic fault plan: comma-separated specs of the form \
           $(i,kind[:target][@k][%pct][!]), e.g. $(b,task-crash@2), \
           $(b,task-crash:procparse!), $(b,dropped-wake%25), $(b,corrupt-artifact).  Kinds: \
           task-crash, dropped-wake, stall, corrupt-artifact, source-error, poison-import, \
           early-complete.  Simulator only.")

let fault_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "fault-seed" ] ~docv:"N" ~doc:"Seed deriving the fault plan's firing decisions.")

(* a cache dir that cannot be created or written degrades to a warning:
   the compilation itself succeeded *)
let save_cache bc =
  try Build_cache.save bc
  with Sys_error e -> Printf.eprintf "m2c: warning: cache not saved: %s\n" e

let report_diags diags = List.iter (fun d -> prerr_endline (Mcc_m2.Diag.to_string d)) diags

(* What the recovery layer did, and the engine's deadlock report when
   the run quiesced with tasks parked (faults or a genuine cycle). *)
let report_robustness (r : Driver.result) =
  let rb = r.Driver.robustness in
  if rb <> Driver.no_robustness then
    Printf.printf
      "faults: %d injected — %d retries, %d stalls, %d quarantined%s, %d watchdog wakes, %d \
       corrupt rebuilds, %d source retries, %d contained%s\n"
      rb.Driver.r_injected rb.Driver.r_retries rb.Driver.r_stalls
      (List.length rb.Driver.r_quarantined)
      (match rb.Driver.r_quarantined with
      | [] -> ""
      | qs -> Printf.sprintf " (%s)" (String.concat ", " qs))
      rb.Driver.r_recovered_wakes rb.Driver.r_corrupt_rebuilds rb.Driver.r_source_retries
      rb.Driver.r_contained
      (if rb.Driver.r_seq_fallbacks > 0 then "; recovered via sequential fallback" else "");
  match r.Driver.deadlock with
  | [] -> ()
  | stuck ->
      print_endline "deadlock report:";
      List.iter (fun l -> print_endline ("  " ^ l)) stuck

(* Strict: out-of-range --procs or --heading is a CLI error, not a
   silent clamp. *)
let with_config ~procs ~strategy ~heading k =
  match (Cliopt.parse_procs procs, Cliopt.parse_heading heading) with
  | Error e, _ | _, Error e -> `Error (false, e)
  | Ok procs, Ok heading -> k { Driver.default_config with Driver.procs; strategy; heading }

let compile_cmd =
  let run store procs strategy heading watch stats disasm dump_tasks domains cache_dir no_cache
      trace_json faults fault_seed =
    with_config ~procs ~strategy ~heading @@ fun base_config ->
    let cache =
      match (cache_dir, no_cache) with
      | Some dir, false -> Some (Build_cache.create ~dir ())
      | _ -> None
    in
    let finish_cache () =
      match cache with
      | None -> ()
      | Some bc ->
          save_cache bc;
          let hits, misses, invalidated = Build_cache.counters bc in
          Printf.printf "cache: %d interface hits, %d misses, %d invalidated, %d evicted (%d stored)\n"
            hits misses invalidated
            (Build_cache.eviction_count bc)
            (List.length (Build_cache.interfaces bc))
    in
    let graph = Option.map (fun bc -> Build_cache.graph bc store) cache in
    match domains with
    | Some n ->
        if trace_json <> None then
          prerr_endline "m2c: warning: --trace-json only applies to the simulator; ignored";
        if faults <> [] then
          prerr_endline "m2c: warning: --inject only applies to the simulator; ignored";
        let r = Driver.compile_domains ~config:base_config ?cache:graph ~domains:n store in
        report_diags r.Driver.d_diags;
        finish_cache ();
        Printf.printf "compiled on %d domains in %.4f s wall; %d tasks; ok=%b\n" n
          r.Driver.d_wall_seconds r.Driver.d_tasks_run r.Driver.d_ok;
        if disasm then print_string (Mcc_codegen.Cunit.disassemble r.Driver.d_program);
        if r.Driver.d_ok then `Ok () else `Error (false, "compilation failed")
    | None ->
        let config = { base_config with Driver.faults; Driver.fault_seed } in
        (* --watch and --trace-json draw the processor activity the
           event log records: asking for either implies capturing *)
        let r = Driver.compile ~config ~capture:(watch || trace_json <> None) ?cache:graph store in
        report_diags r.Driver.diags;
        finish_cache ();
        Printf.printf
          "%s: %d streams (%d procedures, %d interfaces), %d tasks, %.3f virtual s on %d \
           processors (%s)\n"
          (Source_store.main_name store) r.Driver.n_streams r.Driver.n_proc_streams
          r.Driver.n_def_streams r.Driver.n_tasks r.Driver.sim.Mcc_sched.Des_engine.end_seconds
          procs (Symtab.dky_name strategy);
        report_robustness r;
        if watch then begin
          let trace = Mcc_sched.Trace.of_log r.Driver.log in
          print_endline Mcc_stats.Watchtool.legend;
          print_string (Mcc_stats.Watchtool.render trace ~procs);
          print_endline (Mcc_stats.Watchtool.summary trace ~procs)
        end;
        if stats then print_endline (Mcc_stats.Tables.table2 r.Driver.stats);
        if dump_tasks then print_string (Driver.dump_tasks r);
        if disasm then print_string (Mcc_codegen.Cunit.disassemble r.Driver.program);
        (match trace_json with
        | None -> ()
        | Some path -> (
            let json = Mcc_analysis.Trace_json.export r.Driver.log in
            try
              Out_channel.with_open_text path (fun oc -> output_string oc json);
              Printf.printf "trace: %s\n" path
            with Sys_error e -> Printf.eprintf "m2c: warning: trace not written: %s\n" e));
        if r.Driver.ok then `Ok () else `Error (false, "compilation failed")
  in
  let term =
    Term.(
      ret
        (const (fun file synth procs strategy heading watch stats disasm dump_tasks domains
                    cache_dir no_cache trace_json inject fault_seed ->
             match
               try Ok (match inject with None -> [] | Some s -> Fault.parse_list s)
               with Invalid_argument e -> Error e
             with
             | Error e -> `Error (false, e)
             | Ok faults ->
                 with_store file synth (fun store ->
                     run store procs strategy heading watch stats disasm dump_tasks domains
                       cache_dir no_cache trace_json faults fault_seed))
        $ file_opt_arg $ synth_arg $ procs_arg $ strategy_arg $ heading_arg $ watch_arg $ stats_arg
        $ disasm_arg $ dump_tasks_arg $ domains_arg $ cache_dir_arg $ no_cache_arg $ trace_json_arg
        $ inject_arg $ fault_seed_arg))
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile a module concurrently.") term

let build_cmd =
  let names = function [] -> "(none)" | ns -> String.concat " " ns in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain-rebuild" ]
          ~doc:
            "Print one reuse/rebuild reason per module, how each stale interface was settled \
             (re-keyed, re-analysed and kept, or re-analysed and changed, with the exported \
             declarations that changed), and where invalidation was cut off early.")
  in
  let coarse_arg =
    Arg.(
      value & flag
      & info [ "coarse" ]
          ~doc:
            "Disable declaration-level (slice) invalidation: reuse only on whole-module key \
             hits, as before fine-grained tracking existed.")
  in
  let term =
    Term.(
      ret
        (const (fun file procs strategy cache_dir no_cache explain coarse ->
             match load file with
             | `Error _ as e -> e
             | `Ok store ->
                 with_config ~procs ~strategy ~heading:1 @@ fun config ->
                 let cache =
                   if no_cache then None
                   else
                     Some (Project.cache ~dir:(Option.value cache_dir ~default:".m2c-cache") ())
                 in
                 let r = Project.compile ~config ~fine:(not coarse) ?cache store in
                 report_diags r.Project.diags;
                 (match cache with
                 | None -> ()
                 | Some ({ Project.bc; _ } as c) ->
                     (try Project.save c
                      with Sys_error e ->
                        Printf.eprintf "m2c: warning: cache not saved: %s\n" e);
                     let hits, misses, invalidated = Build_cache.counters bc in
                     Printf.printf
                       "interfaces: %d hits, %d misses, %d invalidated, %d evicted (%d stored)\n"
                       hits misses invalidated
                       (Build_cache.eviction_count bc)
                       (List.length (Build_cache.interfaces bc)));
                 Printf.printf "reused    : %s\n" (names r.Project.reused);
                 Printf.printf "recompiled: %s\n" (names r.Project.recompiled);
                 Printf.printf
                   "reuse     : %.0f check units + %.0f interface-refresh units; %d early \
                    cutoff%s\n"
                   r.Project.reuse_units r.Project.refresh_units
                   (List.length r.Project.cutoffs)
                   (if List.length r.Project.cutoffs = 1 then "" else "s");
                 if explain then begin
                   List.iter
                     (fun (m, why) -> Printf.printf "  %-16s %s\n" m why)
                     r.Project.explain;
                   List.iter
                     (fun (m, how) ->
                       Printf.printf "  interface %-6s %s\n" m
                         (match how with
                         | Project.Rekeyed -> "re-keyed: text and imported artifacts unchanged"
                         | Project.Kept -> "re-analysed, kept: shape unchanged"
                         | Project.Changed slices ->
                             "re-analysed, changed: " ^ String.concat ", " slices))
                     r.Project.settled;
                   List.iter
                     (fun m ->
                       Printf.printf "  cutoff at %s: interface shape unchanged, importers \
                                      kept\n" m)
                     r.Project.cutoffs
                 end;
                 Printf.printf "%s: %d modules, %.0f work units (%.3f virtual s) on %d processors\n"
                   (Source_store.main_name store)
                   (List.length r.Project.modules)
                   r.Project.total_units
                   (Mcc_sched.Costs.to_seconds r.Project.total_units)
                   procs;
                 if r.Project.ok then `Ok () else `Error (false, "compilation failed"))
        $ file_arg $ procs_arg $ strategy_arg $ cache_dir_arg $ no_cache_arg $ explain_arg
        $ coarse_arg))
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Incremental whole-program build: compile the main module and every imported sibling \
          module, reusing cached interface artifacts (default cache dir: .m2c-cache).  \
          Invalidation is declaration-level: a module rebuilds only when an exported \
          declaration it used changed, and propagation stops early when an edited interface's \
          regenerated shape is unchanged.")
    term

let run_cmd =
  let input_arg =
    Arg.(
      value & opt (list int) []
      & info [ "input" ] ~docv:"INTS" ~doc:"Comma-separated integers consumed by ReadInt.")
  in
  let term =
    Term.(
      ret
        (const (fun file procs strategy input ->
             match load file with
             | `Error _ as e -> e
             | `Ok store ->
                 with_config ~procs ~strategy ~heading:1 @@ fun config ->
                 (* whole-program: also compiles sibling .mod files the
                    main module imports, in initialization order *)
                 let r = Project.compile ~config store in
                 report_diags r.Project.diags;
                 if not r.Project.ok then `Error (false, "compilation failed")
                 else begin
                   let res = Mcc_vm.Vm.run ~input r.Project.program in
                   print_string res.Mcc_vm.Vm.output;
                   match res.Mcc_vm.Vm.status with
                   | Mcc_vm.Vm.Finished | Mcc_vm.Vm.Halt_called -> `Ok ()
                   | s -> `Error (false, Mcc_vm.Vm.status_to_string s)
                 end)
        $ file_arg $ procs_arg $ strategy_arg $ input_arg))
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile a module and execute it in the VM.") term

let analyze_cmd =
  let schedules_arg =
    Arg.(
      value & opt int 8
      & info [ "schedules" ] ~docv:"N"
          ~doc:"Perturbed schedules per (strategy, procs) cell, on top of the baseline.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Master seed for schedule perturbation.")
  in
  let one_strategy_arg =
    Arg.(
      value
      & opt (some strategy_conv) None
      & info [ "s"; "strategy" ] ~docv:"S"
          ~doc:"Analyze only this DKY strategy (default: all four concurrent strategies).")
  in
  let procs_list_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8 ]
      & info [ "p"; "procs" ] ~docv:"N,..." ~doc:"Simulated processor counts to cover.")
  in
  let early_publish_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-early-publish" ] ~docv:"SCOPE"
          ~doc:
            "Arm a deterministic early-publish fault in scope $(docv) (e.g. M01L0.def); the run \
             then succeeds only if the checker detects it.")
  in
  let run store schedules seed strategy procs_list inject =
    let strategies = match strategy with Some s -> [ s ] | None -> Symtab.all_concurrent in
    match Cliopt.parse_procs_list procs_list with
    | Error e -> `Error (false, e)
    | Ok procs_list -> begin
      let rep =
        Mcc_analysis.Explorer.explore ~schedules ~seed ~strategies ~procs_list
          ?inject_early_publish:inject store
      in
      print_string (Mcc_analysis.Explorer.render rep);
      match inject with
      | None ->
          if Mcc_analysis.Explorer.clean rep then `Ok ()
          else `Error (false, "happens-before violations or divergent schedules")
      | Some scope ->
          if rep.Mcc_analysis.Explorer.total_violations > 0 then begin
            Printf.printf "injected early-publish fault in %s: DETECTED\n" scope;
            `Ok ()
          end
          else `Error (false, "injected fault was NOT detected")
    end
  in
  let term =
    Term.(
      ret
        (const (fun file synth schedules seed strategy procs_list inject ->
             with_store file synth (fun store ->
                 run store schedules seed strategy procs_list inject))
        $ file_opt_arg $ synth_arg $ schedules_arg $ seed_arg $ one_strategy_arg $ procs_list_arg
        $ early_publish_arg))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Explore perturbed-but-legal Supervisor schedules across the DKY strategy x processor \
          matrix, checking every run's event log against the happens-before invariants and every \
          run's output against the unperturbed baseline.")
    term

let profile_cmd =
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"Show the $(docv) longest critical-path hops.")
  in
  let prom_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"PATH"
          ~doc:"Also write the profile as Prometheus text exposition format to $(docv).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the profile as JSON (schema mcc-profile-v1) to $(docv).")
  in
  let write_checked path what content validate =
    match validate content with
    | Error e -> Error (Printf.sprintf "internal error: %s export invalid: %s" what e)
    | Ok () -> (
        try
          Out_channel.with_open_text path (fun oc -> output_string oc content);
          Printf.printf "%s: %s\n" what path;
          Ok ()
        with Sys_error e -> Error e)
  in
  let run store procs strategy heading top prom json cache_dir =
    with_config ~procs ~strategy ~heading @@ fun config ->
    let cache = Option.map (fun dir -> Build_cache.create ~dir ()) cache_dir in
    (* profiling implies both the event log and the metrics registry *)
    let graph = Option.map (fun bc -> Build_cache.graph bc store) cache in
    let r = Driver.compile ~config ~capture:true ~telemetry:true ?cache:graph store in
    report_diags r.Driver.diags;
    (match cache with
    | None -> ()
    | Some bc ->
        save_cache bc;
        let hits, misses, invalidated = Build_cache.counters bc in
        Printf.printf "cache: %d interface hits, %d misses, %d invalidated, %d evicted (%d stored)\n"
          hits misses invalidated
          (Build_cache.eviction_count bc)
          (List.length (Build_cache.interfaces bc)));
    if not r.Driver.ok then `Error (false, "compilation failed")
    else begin
      let p =
        Mcc_obs.Profile.make
          ~module_name:(Source_store.main_name store)
          ~procs:config.Driver.procs ~strategy:(Symtab.dky_name strategy)
          ~end_time:r.Driver.sim.Mcc_sched.Des_engine.end_time
          ~seconds_per_unit:Mcc_sched.Costs.seconds_per_unit
          ~metrics:(Option.value ~default:[] r.Driver.telemetry)
          r.Driver.log
      in
      print_string (Mcc_obs.Profile.render ~top p);
      let results =
        [
          (match prom with
          | None -> Ok ()
          | Some path ->
              write_checked path "prometheus" (Mcc_obs.Profile.to_prometheus p)
                Mcc_obs.Prom.validate);
          (match json with
          | None -> Ok ()
          | Some path ->
              write_checked path "json" (Mcc_obs.Profile.to_json p) Mcc_obs.Json.validate);
        ]
      in
      match List.filter_map (function Error e -> Some e | Ok () -> None) results with
      | e :: _ -> `Error (false, e)
      | [] -> `Ok ()
    end
  in
  let term =
    Term.(
      ret
        (const (fun file synth procs strategy heading top prom json cache_dir ->
             with_store file synth (fun store ->
                 run store procs strategy heading top prom json cache_dir))
        $ file_opt_arg $ synth_arg $ procs_arg $ strategy_arg $ heading_arg $ top_arg $ prom_arg
        $ json_arg $ cache_dir_arg))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile with telemetry and report where the virtual time went: a critical-path \
          attribution table whose buckets sum to the end-to-end time, per-class busy totals, and \
          the longest bottleneck hops.  Optional Prometheus and JSON exports.")
    term

let check_cmd =
  let budget_arg =
    Arg.(
      value & opt int 50
      & info [ "budget" ] ~docv:"N" ~doc:"Differential checks to run (each is one program/cell pair).")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Master seed for the work queue.")
  in
  let matrix_arg =
    Arg.(
      value & opt string "all:1,2,8"
      & info [ "matrix" ] ~docv:"STRATS:PROCS"
          ~doc:
            "Strategy x processor matrix to cycle through, e.g. \
             $(b,skeptical,optimistic:1,2,8) or $(b,all:1,2,4,8).")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip delta-debugging divergent programs.")
  in
  let no_vm_arg =
    Arg.(value & flag & info [ "no-vm" ] ~doc:"Skip executing runnable programs in the VM.")
  in
  let plant_arg =
    Arg.(
      value & flag
      & info [ "plant" ]
          ~doc:
            "Plant the cache-tamper canary in every warm-cache cell; the run then succeeds only \
             if the oracle reports the planted divergence.")
  in
  let save_arg =
    Arg.(
      value
      & opt ~vopt:(Some "corpus") (some string) None
      & info [ "save" ] ~docv:"DIR"
          ~doc:
            "Write report.json (schema mcc-check-report-v1) and minimized reproducers to \
             $(docv) (plain $(b,--save) means $(b,corpus/)).  Even without this flag, a run \
             that finds divergences drops its reproducers in $(b,corpus/) so they are kept as \
             regression seeds.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Narrate each check to stderr.")
  in
  let save_report dir (r : Mcc_check.Check.report) =
    match Mcc_check.Check.save ~dir r with
    | Error e -> Error e
    | Ok report_path ->
        Printf.printf "report: %s\n" report_path;
        Ok ()
  in
  let run budget seed matrix no_shrink no_vm plant save verbose =
    if budget < 1 then `Error (false, Printf.sprintf "invalid budget %d: must be positive" budget)
    else
      match Cliopt.parse_matrix matrix with
      | Error e -> `Error (false, e)
      | Ok (strategies, procs) ->
          let open Mcc_check in
          let cfg =
            {
              Check.default_config with
              Check.budget;
              seed;
              strategies;
              procs;
              run_vm = not no_vm;
              shrink = not no_shrink;
              plant;
            }
          in
          let progress = if verbose then fun msg -> Printf.eprintf "m2c check: %s\n%!" msg else fun _ -> () in
          let r = Check.run ~progress cfg in
          Printf.printf "conformance: %d checks (%d oracle, %d morph) over %d programs on %s — %d divergence%s\n"
            r.Check.checks_run r.Check.oracle_checks r.Check.morph_checks r.Check.programs matrix
            (List.length r.Check.divergences)
            (if List.length r.Check.divergences = 1 then "" else "s");
          List.iter
            (fun (d : Check.divergence_report) ->
              Printf.printf "  item %d [%s] %s diverged on %s: expected %s, got %s\n" d.Check.item
                d.Check.program d.Check.cell d.Check.field d.Check.expected d.Check.actual;
              (match d.Check.shrunk with
              | Some (orig, mini, steps) ->
                  Printf.printf "    shrunk %d -> %d bytes in %d predicate evaluations\n" orig mini
                    steps
              | None -> ());
              Printf.printf "    replay: %s\n" d.Check.replay)
            r.Check.divergences;
          if plant then
            Printf.printf "planted canary: %s\n"
              (if r.Check.planted_detected then "DETECTED" else "MISSED");
          let saved =
            match save with
            | Some dir -> save_report dir r
            | None ->
                (* divergences are always kept: the corpus is the
                   regression seed set the next run replays *)
                if r.Check.divergences <> [] then save_report "corpus" r else Ok ()
          in
          (match saved with
          | Error e -> `Error (false, e)
          | Ok () ->
              if Check.ok r then `Ok ()
              else
                `Error
                  ( false,
                    if plant then "planted canary was NOT detected"
                    else "conformance divergences found" ))
  in
  let term =
    Term.(
      ret
        (const run $ budget_arg $ seed_arg $ matrix_arg $ no_shrink_arg $ no_vm_arg $ plant_arg
       $ save_arg $ verbose_arg))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential conformance harness: compile seeded synthetic programs under the \
          sequential baseline and the concurrent compiler across a strategy x processor x \
          perturbation x cache x fault matrix (plus metamorphic source transforms), report any \
          observation divergence, and delta-debug each divergent program to a minimized \
          reproducer.")
    term

let serve_cmd =
  let open Mcc_serve in
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Simulated client sessions.")
  in
  let jobs_arg =
    Arg.(value & opt int 40 & info [ "jobs" ] ~docv:"N" ~doc:"Total compile jobs across clients.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Traffic seed (arrivals and program draws).")
  in
  let policy_arg =
    Arg.(
      value & opt string "fair"
      & info [ "policy" ] ~docv:"P"
          ~doc:"Queue policy: $(b,fair) (deficit round-robin across sessions) or $(b,fifo).")
  in
  let cap_arg =
    Arg.(
      value & opt int 64
      & info [ "cap" ] ~docv:"N" ~doc:"Admission bound: queued jobs beyond this are shed.")
  in
  let batch_arg =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"N"
          ~doc:"Max jobs coalesced per dispatch when they share an interface closure (1 disables).")
  in
  let cache_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:"Bound the shared interface store to $(docv) MB (LRU eviction); default unbounded.")
  in
  let memo_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "memo-cap" ] ~docv:"N"
          ~doc:
            "Bound the shared module memo to $(docv) entries (cost-aware eviction); default \
             unbounded.")
  in
  let mean_arg =
    Arg.(
      value & opt float 40.0
      & info [ "mean" ] ~docv:"SECONDS" ~doc:"Per-client mean interarrival time, virtual seconds.")
  in
  let skew_arg =
    Arg.(
      value & flag
      & info [ "skew" ]
          ~doc:"Make client 0 chatty: 8x everyone's offered rate, at the lowest priority.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-compile every served program one-shot and cacheless, and require every served \
             job's output to be observationally identical (the seq-vs-server conformance \
             oracle).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-job deadline, virtual seconds: a job still queued longer than this after \
             arrival is shed at dispatch instead of served.  Default: serve everything \
             admitted.")
  in
  let run procs strategy clients jobs seed policy cap batch cache_mb memo_cap mean skew deadline
      faults fault_seed verify =
    let ( let* ) r k = match r with Error e -> `Error (false, e) | Ok v -> k v in
    with_config ~procs ~strategy ~heading:1 @@ fun compile ->
    let* clients = Cliopt.parse_positive ~what:"--clients" clients in
    let* jobs = Cliopt.parse_positive ~what:"--jobs" jobs in
    let* cap = Cliopt.parse_positive ~what:"--cap" cap in
    let* batch = Cliopt.parse_positive ~what:"--batch" batch in
    match deadline with
    | Some d when d <= 0.0 -> `Error (false, "--deadline must be positive")
    | _ -> (
    match Queue.policy_of_string policy with
    | None -> `Error (false, Printf.sprintf "unknown policy %S: must be fair or fifo" policy)
    | Some policy ->
        let traffic =
          {
            Traffic.default with
            Traffic.clients;
            jobs;
            seed;
            mean_interarrival = mean;
            skew;
          }
        in
        let cfg =
          {
            Server.compile;
            policy;
            cap;
            quantum = Server.default_config.Server.quantum;
            batch_max = batch;
            deadline;
            faults;
            fault_seed;
          }
        in
        let cache = Server.cache ?cache_mb ?memo_cap () in
        let trace = Traffic.generate traffic in
        let r = Server.serve ~cache cfg trace in
        Printf.printf "serve: %d jobs from %d clients on %d processors (%s policy)\n"
          r.Server.r_submitted clients procs r.Server.r_policy;
        Printf.printf
          "served %d (%d warm, %d batched, %d retried, %d failed), shed %d admission + %d \
           overdue, peak queue %d\n"
          r.Server.r_served r.Server.r_warm r.Server.r_batched_jobs r.Server.r_retried
          r.Server.r_failed r.Server.r_shed r.Server.r_deadline_shed r.Server.r_max_depth;
        Printf.printf "throughput: %.3f jobs/virtual s over %.1f s\n" r.Server.r_throughput
          r.Server.r_end_seconds;
        Printf.printf "sojourn: mean %.2f s, p50 %.2f, p95 %.2f, p99 %.2f, max %.2f\n"
          r.Server.r_mean r.Server.r_p50 r.Server.r_p95 r.Server.r_p99 r.Server.r_max;
        Printf.printf
          "cache: %d interface hits, %d misses, %d invalidated, %d evicted; memo %d hits, %d \
           misses, %d evicted\n"
          r.Server.r_iface_hits r.Server.r_iface_misses r.Server.r_iface_invalidations
          r.Server.r_iface_evictions r.Server.r_memo_hits r.Server.r_memo_misses
          r.Server.r_memo_evictions;
        List.iter
          (fun s ->
            Printf.printf "  %-10s %3d submitted %3d served %3d shed   p50 %8.2f  p99 %8.2f\n"
              s.Server.ss_session s.Server.ss_submitted s.Server.ss_served s.Server.ss_shed
              s.Server.ss_p50 s.Server.ss_p99)
          r.Server.r_sessions;
        if verify then
          match Server.verify cfg r with
          | Ok n ->
              Printf.printf "conformance: %d served jobs identical to one-shot compiles\n" n;
              `Ok ()
          | Error e -> `Error (false, "conformance: " ^ e)
        else `Ok ())
  in
  let term =
    Term.(
      ret
        (const (fun procs strategy clients jobs seed policy cap batch cache_mb memo_cap mean skew
                    deadline inject fault_seed verify ->
             match
               try Ok (match inject with None -> [] | Some s -> Fault.parse_list s)
               with Invalid_argument e -> Error e
             with
             | Error e -> `Error (false, e)
             | Ok faults ->
                 run procs strategy clients jobs seed policy cap batch cache_mb memo_cap mean skew
                   deadline faults fault_seed verify)
        $ procs_arg $ strategy_arg $ clients_arg $ jobs_arg $ seed_arg $ policy_arg $ cap_arg
        $ batch_arg $ cache_mb_arg $ memo_cap_arg $ mean_arg $ skew_arg $ deadline_arg
        $ inject_arg $ fault_seed_arg $ verify_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile server over a simulated open-loop job stream: per-client seeded \
          arrival processes, admission control with load shedding, FIFO or deficit-round-robin \
          fair scheduling, interface-closure batching, and a shared warm build cache.  Reports \
          throughput, sojourn percentiles and per-session statistics; with $(b,--inject), every \
          job compiles under its own fault plan and the server isolates failures.")
    term

let farm_cmd =
  let open Mcc_farm in
  let nodes_arg =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc:"Simulated build-farm nodes.")
  in
  let net_arg =
    Arg.(
      value & opt string "lan"
      & info [ "net" ] ~docv:"NET"
          ~doc:
            "Network-cost model between nodes: $(b,zero), $(b,lan), $(b,wan) or \
             $(i,LAT_US:BW_MBPS:LOSS_PCT).")
  in
  let shard_arg =
    Arg.(
      value & opt string "hash"
      & info [ "shard" ] ~docv:"POLICY"
          ~doc:
            "How definition-module closures are placed on nodes: $(b,hash) (stable content \
             hash) or $(b,size) (size-balanced greedy).")
  in
  let steal_arg =
    Arg.(
      value & opt bool true
      & info [ "steal" ] ~docv:"BOOL" ~doc:"Idle nodes steal runnable closures from peers.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Network jitter/loss stream seed.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Require the farm's final program to be observationally identical to a one-shot \
             sequential compile (the farm-vs-seq conformance oracle).")
  in
  let run store nodes procs strategy net shard steal seed faults fault_seed verify =
    let ( let* ) r k = match r with Error e -> `Error (false, e) | Ok v -> k v in
    with_config ~procs ~strategy ~heading:1 @@ fun compile ->
    let* nodes = Cliopt.parse_positive ~what:"--nodes" nodes in
    let* net = Mcc_farm.Netsim.params_of_string net in
    match Shard.policy_of_string shard with
    | None -> `Error (false, Printf.sprintf "unknown --shard %S: must be hash or size" shard)
    | Some shard ->
        let cfg = { Farm.compile; nodes; net; shard; steal; faults; fault_seed; seed } in
        let r = Farm.run cfg store in
        Printf.printf "farm: %d tasks over %d nodes x %d procs (%s net, %s shard%s)\n"
          r.Farm.f_tasks r.Farm.f_nodes r.Farm.f_procs r.Farm.f_net r.Farm.f_shard
          (if steal then ", stealing" else "");
        Printf.printf "makespan: %.3f virtual s%s\n" r.Farm.f_makespan
          (if r.Farm.f_seq_fallback then " (total node loss: sequential fallback)" else "");
        Printf.printf
          "rpc: %d fetches, %d served, %d local fallbacks, %d retries, %d drops, %d hedged (%d \
           won), %d replicated\n"
          r.Farm.f_fetches r.Farm.f_serves r.Farm.f_local_fallbacks r.Farm.f_rpc_retries
          r.Farm.f_rpc_drops r.Farm.f_hedges r.Farm.f_hedge_wins r.Farm.f_replicas;
        if
          r.Farm.f_crashes + r.Farm.f_steals + r.Farm.f_partitions + r.Farm.f_slow_nodes > 0
        then
          Printf.printf
            "faults: %d crashes (%d detected, %d closures re-sharded), %d slow nodes, %d \
             partitions; %d steals\n"
            r.Farm.f_crashes r.Farm.f_detects r.Farm.f_reshards r.Farm.f_slow_nodes
            r.Farm.f_partitions r.Farm.f_steals;
        List.iter
          (fun ns ->
            Printf.printf "  node%d %s%s %3d tasks (%d stolen), %4d fetches, %4d serves, busy \
                           %.3f s\n"
              ns.Farm.ns_id
              (if ns.Farm.ns_alive then "up  " else "DEAD")
              (if ns.Farm.ns_slow then " slow" else "")
              ns.Farm.ns_tasks ns.Farm.ns_stolen ns.Farm.ns_fetches ns.Farm.ns_serves
              ns.Farm.ns_busy_seconds)
          r.Farm.f_node_stats;
        if not r.Farm.f_ok then Printf.printf "compile finished with errors\n";
        if verify then
          match Farm.verify store r with
          | Ok () ->
              print_endline "conformance: farm output identical to the sequential oracle";
              `Ok ()
          | Error e -> `Error (false, "conformance: " ^ e)
        else `Ok ()
  in
  let term =
    Term.(
      ret
        (const (fun file synth nodes procs strategy net shard steal seed inject fault_seed verify ->
             match
               try Ok (match inject with None -> [] | Some s -> Fault.parse_list s)
               with Invalid_argument e -> Error e
             with
             | Error e -> `Error (false, e)
             | Ok faults ->
                 with_store file synth @@ fun store ->
                 run store nodes procs strategy net shard steal seed faults fault_seed verify)
        $ file_opt_arg $ synth_arg $ nodes_arg $ procs_arg $ strategy_arg $ net_arg $ shard_arg
        $ steal_arg $ seed_arg $ inject_arg $ fault_seed_arg $ verify_arg))
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:
         "Compile on a simulated multi-node build farm: definition-module closures sharded \
          across nodes, interface artifacts shipped over a content-addressed remote cache \
          (timeout, capped backoff retry, hedged fetch to a replica), idle nodes stealing \
          runnable work, and virtual-time heartbeats driving crash detection and re-sharding.  \
          Farm fault kinds for $(b,--inject): $(b,node-crash:node1@2), $(b,node-slow:node2!), \
          $(b,msg-drop%10), $(b,partition@5).")
    term

let trace_cmd =
  let module Dtrace = Mcc_obs.Dtrace in
  let module Slo = Mcc_obs.Slo in
  let module Json = Mcc_obs.Json in
  let farm_arg =
    Arg.(
      value & flag
      & info [ "farm" ]
          ~doc:"Trace a build-farm run ($(b,m2c farm)) instead of the compile server.")
  in
  let clients_arg =
    Arg.(value & opt int 3 & info [ "clients" ] ~docv:"N" ~doc:"Server mode: client sessions.")
  in
  let jobs_arg =
    Arg.(value & opt int 12 & info [ "jobs" ] ~docv:"N" ~doc:"Server mode: total compile jobs.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S" ~doc:"Traffic seed (server) or network seed (farm).")
  in
  let cap_arg =
    Arg.(value & opt int 8 & info [ "cap" ] ~docv:"N" ~doc:"Server mode: admission bound.")
  in
  let mean_arg =
    Arg.(
      value & opt float 2.0
      & info [ "mean" ] ~docv:"SECONDS"
          ~doc:"Server mode: per-client mean interarrival, virtual seconds.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Server mode: per-job deadline.")
  in
  let nodes_arg =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"N" ~doc:"Farm mode: build-farm nodes.")
  in
  let depth_arg =
    Arg.(
      value & opt int 2
      & info [ "depth" ] ~docv:"D"
          ~doc:
            "Waterfall depth: 2 shows the request anatomy, 3 the service segments, 4 adds inner \
             engine tasks.")
  in
  let otlp_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "otlp" ] ~docv:"FILE" ~doc:"Write the OTLP-flavoured JSON export to $(docv).")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event export to $(docv) (load in chrome://tracing or \
             ui.perfetto.dev); inner engines nest as their own processes.")
  in
  let spu = Mcc_sched.Costs.seconds_per_unit in
  (* Hb check at the observability layer: replay the outer log and every
     captured inner engine log; any violation trips the flight recorder
     with the owning span's trace id so it resolves to a bundle. *)
  let hb_sweep slo (t : Dtrace.t) ~outer ~outer_trace subs =
    let trip_log ~trace log =
      let h = Mcc_analysis.Hb.check log in
      if not (Mcc_analysis.Hb.ok h) then
        Slo.trip slo ~job:(-1) ~cls:"hb" ~trace ~reason:Slo.Hb_trip ~at:0.0
          ~detail:
            (String.concat "; "
               (List.map Mcc_analysis.Hb.violation_to_string h.Mcc_analysis.Hb.violations))
    in
    trip_log ~trace:outer_trace outer;
    List.iter
      (fun (s : Dtrace.sub) ->
        let trace =
          match List.find_opt (fun sp -> sp.Dtrace.d_span = s.Dtrace.sub_owner) t.Dtrace.spans with
          | Some sp -> sp.Dtrace.d_trace
          | None -> outer_trace
        in
        trip_log ~trace s.Dtrace.sub_log)
      subs
  in
  (* waterfall, critical path, SLO summary, post-mortem bundles, file
     exports, then the validation verdict as the exit status *)
  let render ~depth ~otlp ~chrome slo (t : Dtrace.t) =
    print_string (Dtrace.waterfall ~max_depth:depth ~sec_per_unit:spu t);
    let cr = Dtrace.critpath t in
    if cr.Dtrace.c_end > 0.0 then begin
      Printf.printf "critical path: %.3f virtual s end-to-end\n" (cr.Dtrace.c_end *. spu);
      List.iter
        (fun (b, u) ->
          Printf.printf "  %-12s %10.3f s  %5.1f%%\n" b (u *. spu)
            (100.0 *. u /. cr.Dtrace.c_end))
        cr.Dtrace.c_buckets;
      if cr.Dtrace.c_critical_node >= 0 then
        Printf.printf "  critical node: node%d\n" cr.Dtrace.c_critical_node;
      if cr.Dtrace.c_critical_rpc <> "" then
        Printf.printf "  critical rpc:  %s\n" cr.Dtrace.c_critical_rpc
    end;
    print_string (Slo.summary slo);
    List.iter
      (fun (tr : Slo.trip) ->
        Printf.printf "post-mortem: job #%d class %s %s at %.2f s — %s\n" tr.Slo.t_job
          tr.Slo.t_class
          (Slo.reason_name tr.Slo.t_reason)
          tr.Slo.t_at tr.Slo.t_detail;
        List.iter
          (fun (s : Dtrace.span) ->
            Printf.printf "    [%10.3f, %10.3f] %-10s %-24s %s\n" (s.Dtrace.d_t0 *. spu)
              (s.Dtrace.d_t1 *. spu) s.Dtrace.d_kind s.Dtrace.d_name s.Dtrace.d_status)
          (Dtrace.bundle t ~trace:tr.Slo.t_trace))
      (Slo.trips slo);
    let write path contents =
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
      Printf.printf "wrote %s\n" path
    in
    (match otlp with
    | Some f -> write f (Json.to_string (Dtrace.to_otlp ~sec_per_unit:spu t))
    | None -> ());
    (match chrome with
    | Some f -> write f (Mcc_analysis.Trace_json.export_spans ~sec_per_unit:spu t)
    | None -> ());
    match Dtrace.validate t with
    | Ok () ->
        Printf.printf "trace: %d spans validate (tiling, containment, parentage)\n"
          (List.length t.Dtrace.spans);
        `Ok ()
    | Error e -> `Error (false, "trace validation: " ^ e)
  in
  let run_serve compile clients jobs seed cap mean deadline faults fault_seed depth otlp chrome =
    let open Mcc_serve in
    let ( let* ) r k = match r with Error e -> `Error (false, e) | Ok v -> k v in
    let* clients = Cliopt.parse_positive ~what:"--clients" clients in
    let* jobs = Cliopt.parse_positive ~what:"--jobs" jobs in
    let* cap = Cliopt.parse_positive ~what:"--cap" cap in
    let cfg =
      { Server.default_config with Server.compile; cap; deadline; faults; fault_seed }
    in
    let traffic =
      { Traffic.default with Traffic.clients; jobs; seed; mean_interarrival = mean }
    in
    let r = Server.serve ~trace:true ~cache:(Server.cache ()) cfg (Traffic.generate traffic) in
    Printf.printf "trace: %d jobs from %d clients — served %d, shed %d + %d overdue\n"
      r.Server.r_submitted clients r.Server.r_served r.Server.r_shed r.Server.r_deadline_shed;
    let t = Dtrace.assemble ~subs:r.Server.r_subs r.Server.r_events in
    hb_sweep r.Server.r_slo t ~outer:r.Server.r_events ~outer_trace:"" r.Server.r_subs;
    render ~depth ~otlp ~chrome r.Server.r_slo t
  in
  let run_farm store compile nodes seed faults fault_seed depth otlp chrome =
    let open Mcc_farm in
    let ( let* ) r k = match r with Error e -> `Error (false, e) | Ok v -> k v in
    let* nodes = Cliopt.parse_positive ~what:"--nodes" nodes in
    let cfg = { Farm.default_config with Farm.compile; nodes; seed; faults; fault_seed } in
    let r = Farm.run ~trace:true cfg store in
    Printf.printf "trace: %d farm tasks over %d nodes — makespan %.3f virtual s\n" r.Farm.f_tasks
      r.Farm.f_nodes r.Farm.f_makespan;
    let t = Dtrace.assemble ~subs:r.Farm.f_subs r.Farm.f_events in
    (* the farm has no admission layer, so the recorder only carries
       what the Hb sweep trips *)
    let slo = Slo.create () in
    hb_sweep slo t ~outer:r.Farm.f_events ~outer_trace:r.Farm.f_trace r.Farm.f_subs;
    render ~depth ~otlp ~chrome slo t
  in
  let term =
    Term.(
      ret
        (const (fun farm file synth procs strategy clients jobs seed cap mean deadline nodes
                    inject fault_seed depth otlp chrome ->
             match
               try Ok (match inject with None -> [] | Some s -> Fault.parse_list s)
               with Invalid_argument e -> Error e
             with
             | Error e -> `Error (false, e)
             | Ok faults ->
                 with_config ~procs ~strategy ~heading:1 @@ fun compile ->
                 if farm then
                   with_store file synth @@ fun store ->
                   run_farm store compile nodes seed faults fault_seed depth otlp chrome
                 else if file <> None || synth <> None then
                   `Error (false, "FILE.mod / --synth apply only with --farm")
                 else run_serve compile clients jobs seed cap mean deadline faults fault_seed
                        depth otlp chrome)
        $ farm_arg $ file_opt_arg $ synth_arg $ procs_arg $ strategy_arg $ clients_arg $ jobs_arg
        $ seed_arg $ cap_arg $ mean_arg $ deadline_arg $ nodes_arg $ inject_arg $ fault_seed_arg
        $ depth_arg $ otlp_arg $ chrome_arg))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "End-to-end distributed tracing of a compile-server or build-farm run: per-request \
          waterfall with queue/service/probe/compile (or fetch/compute) anatomy, the cross-node \
          critical path attributed to queue-wait, network, remote-cache and compute, the SLO \
          flight recorder's per-class burn rates, and a post-mortem span bundle for every \
          tripped job.  $(b,--otlp) and $(b,--chrome) write deterministic JSON exports; the \
          exit status is the span-forest validation verdict (every sojourn exactly tiled, no \
          orphans, no containment leaks).")
    term

let sweep_cmd =
  let term =
    Term.(
      ret
        (const (fun file strategy ->
             match load file with
             | `Error _ as e -> e
             | `Ok store ->
                 let sweep =
                   Mcc_stats.Speedup.sweep ~config:{ Driver.default_config with Driver.strategy }
                     store
                 in
                 Printf.printf "%-6s %12s %8s\n" "procs" "virtual s" "speedup";
                 for n = 1 to 8 do
                   Printf.printf "%-6d %12.3f %8.2f\n" n
                     (Mcc_sched.Costs.to_seconds sweep.Mcc_stats.Speedup.times.(n - 1))
                     (Mcc_stats.Speedup.speedup sweep n)
                 done;
                 `Ok ())
        $ file_arg $ strategy_arg))
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Self-relative speedup on 1..8 simulated processors.") term

let zoo_cmd =
  let dir_arg =
    Arg.(
      value & opt string "corpus"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Corpus root: one subdirectory per scenario (each with a $(b,manifest) and golden \
             $(b,expect/) records), plus loose $(b,repro*) reproducers dropped by $(b,m2c check \
             --save).")
  in
  let shape_arg =
    Arg.(
      value & opt_all string []
      & info [ "shape" ] ~docv:"SPEC"
          ~doc:
            "Run only this generated shape (repeatable) instead of the corpus and the default \
             zoo.  $(docv) is $(b,kind)[$(b,:)key$(b,=)value$(b,,)...], e.g. \
             $(b,diamond:depth=5,width=3), $(b,mutual:pairs=3), $(b,long-proc:lines=2000), \
             $(b,many-procs:procs=2000), $(b,hot-decl:defs=48), $(b,exc-lock:procs=6,depth=4).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:"Seed perturbing generated-shape constants (structure depends only on the spec).")
  in
  let scale_arg =
    Arg.(
      value & flag
      & info [ "scale" ]
          ~doc:
            "Run the scaling mega-suite instead: sweep module count through build, bounded \
             cache, serve and farm in virtual time and report the scheduler and cache knees.")
  in
  let counts_arg =
    Arg.(
      value & opt (some string) None
      & info [ "counts" ] ~docv:"N,N,..."
          ~doc:"Module counts for $(b,--scale) (default 100,300,1000,3000,10000).")
  in
  let update_arg =
    Arg.(
      value & flag
      & info [ "update-golden" ]
          ~doc:
            "Rewrite the corpus $(b,expect/) records from observed behaviour instead of \
             diffing against them (conformance and incremental equivalences still apply).")
  in
  let run dir shapes seed scale counts update_golden =
    let open Mcc_zoo in
    if scale then
      let counts =
        match counts with
        | None -> Ok Scale.default_counts
        | Some spec -> Cliopt.parse_counts spec
      in
      match counts with
      | Error e -> `Error (false, e)
      | Ok counts ->
          let r =
            Scale.run ~seed ~counts ~log:(fun m -> Printf.eprintf "m2c zoo: %s\n%!" m) ()
          in
          List.iter print_endline (Scale.render r);
          `Ok ()
    else if counts <> None then `Error (false, "--counts only applies with --scale")
    else
      let specs =
        List.fold_right
          (fun s acc ->
            match (Shapes.of_string s, acc) with
            | Ok sp, Ok l -> Ok (sp :: l)
            | (Error _ as e), _ -> e
            | _, (Error _ as e) -> e)
          shapes (Ok [])
      in
      match specs with
      | Error e -> `Error (false, e)
      | Ok specs ->
          let outcomes =
            if specs <> [] then List.map (Zoo.run_spec ~seed) specs
            else if not (Sys.file_exists dir && Sys.is_directory dir) then
              [
                {
                  Zoo.o_scenario = dir;
                  o_kind = "corpus";
                  o_oracles = [];
                  o_failures =
                    [
                      {
                        Zoo.f_scenario = dir;
                        f_oracle = "corpus";
                        f_field = "directory";
                        f_expected = "an existing corpus root";
                        f_actual = "missing";
                      };
                    ];
                  o_updated = [];
                };
              ]
            else
              List.map
                (fun d -> Zoo.run_dir ~update_golden (Filename.concat dir d))
                (Zoo.scenario_dirs ~dir)
              @ Zoo.run_repros ~dir
              @ List.map (Zoo.run_spec ~seed) Shapes.default_zoo
          in
          let failures = List.concat_map (fun (o : Zoo.outcome) -> o.Zoo.o_failures) outcomes in
          List.iter
            (fun (o : Zoo.outcome) ->
              Printf.printf "%-4s %-24s [%s] %s\n"
                (if o.Zoo.o_failures = [] then "ok" else "FAIL")
                o.Zoo.o_scenario o.Zoo.o_kind
                (String.concat ", " o.Zoo.o_oracles);
              List.iter (fun u -> Printf.printf "       updated %s\n" u) o.Zoo.o_updated;
              List.iter
                (fun f -> Printf.printf "       %s\n" (Zoo.failure_to_string f))
                o.Zoo.o_failures)
            outcomes;
          Printf.printf "zoo: %d workload%s, %d divergence%s\n" (List.length outcomes)
            (if List.length outcomes = 1 then "" else "s")
            (List.length failures)
            (if List.length failures = 1 then "" else "s");
          if failures = [] then `Ok ()
          else
            `Error
              ( false,
                Printf.sprintf "%d workload%s diverged" (List.length failures)
                  (if List.length failures = 1 then "" else "s") )
  in
  let term =
    Term.(
      ret (const run $ dir_arg $ shape_arg $ seed_arg $ scale_arg $ counts_arg $ update_arg))
  in
  Cmd.v
    (Cmd.info "zoo"
       ~doc:
         "Run the adversarial workload zoo: corpus scenarios through their manifest-declared \
          oracles, shrunk reproducers, generated shapes, and (with $(b,--scale)) the module-count \
          scaling mega-suite.")
    term

let () =
  let doc = "a concurrent compiler for Modula-2+ (Wortman & Junkin, PLDI 1992)" in
  let info = Cmd.info "m2c" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd; build_cmd; run_cmd; sweep_cmd; analyze_cmd; profile_cmd; check_cmd;
            serve_cmd; farm_cmd; trace_cmd; zoo_cmd;
          ]))
