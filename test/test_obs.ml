(* Tests for the telemetry subsystem (lib/obs): the metrics registry,
   the event-log hardening (monotonic virtual time, append order), the
   nesting of observation contexts, span reconstruction and
   critical-path attribution on canned logs, the profile report and
   its exporters (Prometheus text, JSON), the
   validators' negative cases, the Chrome trace export and the
   WatchTool renderer on a canned log, the processor-activity records
   against the run-units histogram, and end-to-end determinism and
   zero-cost guarantees through the driver. *)

open Mcc_obs
module Sched = Mcc_sched
module Driver = Mcc_core.Driver
module Trace_json = Mcc_analysis.Trace_json

let small_store () = Mcc_synth.Suite.program 2

(* --- metrics registry --- *)

let test_metrics_registry () =
  let (), snap =
    Metrics.with_registry (fun () ->
        Metrics.incr "a_total";
        Metrics.incr "a_total";
        Metrics.count ~labels:[ ("cls", "lexor") ] "b_total" 3.0;
        Metrics.gauge_max "peak" 2.0;
        Metrics.gauge_max "peak" 5.0;
        Metrics.gauge_max "peak" 1.0;
        Metrics.observe "dur" 50.0;
        Metrics.observe "dur" 5000.0)
  in
  Alcotest.(check (float 1e-9)) "counter" 2.0 (Metrics.counter_value snap "a_total");
  Alcotest.(check (float 1e-9)) "labelled counter" 3.0
    (Metrics.counter_value snap ~labels:[ ("cls", "lexor") ] "b_total");
  (match Metrics.find snap "peak" with
  | Some { Metrics.s_value = Metrics.VGauge v; _ } ->
      Alcotest.(check (float 1e-9)) "gauge_max keeps the high watermark" 5.0 v
  | _ -> Alcotest.fail "peak gauge missing");
  (match Metrics.find snap "dur" with
  | Some { Metrics.s_value = Metrics.VHistogram { h_counts; h_sum; h_count; _ }; _ } ->
      Alcotest.(check int) "histogram count" 2 h_count;
      Alcotest.(check (float 1e-9)) "histogram sum" 5050.0 h_sum;
      Alcotest.(check int) "total across buckets" 2 (Array.fold_left ( + ) 0 h_counts)
  | _ -> Alcotest.fail "dur histogram missing");
  (* snapshot is sorted by (name, labels) *)
  let names = List.map (fun s -> s.Metrics.s_name) snap in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

let test_metrics_disabled_noop () =
  Alcotest.(check bool) "disabled outside with_registry" false (Metrics.enabled ());
  Metrics.incr "ghost_total";
  let (), snap = Metrics.with_registry (fun () -> ()) in
  Alcotest.(check int) "nothing recorded while disabled" 0 (List.length snap)

let test_metrics_deterministic () =
  let run () =
    Metrics.with_registry (fun () ->
        List.iter
          (fun (n, l) -> Metrics.incr ~labels:l n)
          [
            ("z_total", []);
            ("a_total", [ ("k", "2") ]);
            ("a_total", [ ("k", "1") ]);
            ("z_total", []);
          ])
    |> snd
  in
  Alcotest.(check bool) "identical runs give equal snapshots" true (run () = run ())

(* --- event-log hardening --- *)

let test_evlog_monotonic_assert () =
  let raised = ref false in
  let (), _log =
    Evlog.capture (fun () ->
        Evlog.set_time 5.0;
        Evlog.emit (Evlog.Task_start { task = 1 });
        Evlog.set_time 2.0;
        try Evlog.emit (Evlog.Task_finish { task = 1 })
        with Invalid_argument _ -> raised := true)
  in
  Alcotest.(check bool) "time regression rejected" true !raised

let times log = Array.to_list (Array.map (fun r -> r.Evlog.time) log)

let test_evlog_append_order () =
  let (), empty = Evlog.capture (fun () -> ()) in
  Alcotest.(check int) "fresh capture is empty" 0 (Array.length empty);
  let (), log =
    Evlog.capture (fun () ->
        Evlog.set_time 1.0;
        Evlog.emit (Evlog.Task_start { task = 7 });
        Evlog.set_time 4.0;
        Evlog.emit (Evlog.Task_finish { task = 7 }))
  in
  Alcotest.(check (list int)) "seq counts appends" [ 0; 1 ]
    (Array.to_list (Array.map (fun r -> r.Evlog.seq) log));
  Alcotest.(check (list (float 1e-9))) "records in append order" [ 1.0; 4.0 ] (times log)

(* --- nesting: a run's observation context is its own --- *)

let outer_emit t =
  Evlog.set_time t;
  Evlog.emit (Evlog.Task_start { task = 0 })


let test_nest_uncaptured_compile () =
  let (), log =
    Evlog.capture (fun () ->
        Evlog.set_task 42;
        outer_emit 100.0;
        ignore (Driver.compile ~config:Driver.default_config (small_store ()));
        outer_emit 200.0)
  in
  Alcotest.(check int) "only the outer records" 2 (Array.length log);
  Alcotest.(check (list int)) "the outer task survives the compile" [ 42; 42 ]
    (Array.to_list (Array.map (fun r -> r.Evlog.task) log))

let test_nest_captured_compile () =
  let (c : Driver.result), log =
    Evlog.capture (fun () ->
        outer_emit 100.0;
        let c = Driver.compile ~config:Driver.default_config ~capture:true (small_store ()) in
        outer_emit 200.0;
        c)
  in
  Alcotest.(check bool) "the inner log is non-empty" true (Array.length c.Driver.log > 0);
  Alcotest.(check (float 1e-9)) "the inner clock starts at 0" 0.0 c.Driver.log.(0).Evlog.time;
  Alcotest.(check int) "the inner seq starts at 0" 0 c.Driver.log.(0).Evlog.seq;
  let inner = times c.Driver.log in
  Alcotest.(check bool) "the inner log is monotone" true (inner = List.sort compare inner);
  Alcotest.(check (list (float 1e-9))) "the outer log holds only its own records" [ 100.0; 200.0 ]
    (times log)

let test_nest_telemetry () =
  let (c : Driver.result), outer =
    Metrics.with_registry (fun () ->
        Metrics.incr "outer_total";
        let c = Driver.compile ~config:Driver.default_config ~telemetry:true (small_store ()) in
        Metrics.incr "outer_total";
        c)
  in
  let inner = Option.get c.Driver.telemetry in
  Alcotest.(check bool) "the compile records its own samples" true
    (Metrics.counter_total inner "mcc_tasks_total" > 0.0);
  Alcotest.(check (float 1e-9)) "none of the encloser's" 0.0
    (Metrics.counter_value inner "outer_total");
  Alcotest.(check (float 1e-9)) "the encloser keeps its count" 2.0
    (Metrics.counter_value outer "outer_total");
  Alcotest.(check (float 1e-9)) "and gets none of the compile's" 0.0
    (Metrics.counter_total outer "mcc_tasks_total")

(* A compile's event, task and scope ids count from 0 in its own
   context: corpus/mutual-use deadlocks under Avoidance, and the same
   compile, run twice and then on a spawned domain, names the same ids
   in its diagnostic and logs the same records. *)
let test_nest_ids_per_compile () =
  let store =
    Mcc_core.Source_store.of_directory
      ~dir:(Filename.concat (Lazy.force Tutil.corpus_dir) "mutual-use")
      ~main_name:"Mutual"
  in
  let config = { Driver.default_config with Driver.strategy = Mcc_sem.Symtab.Avoidance } in
  let run () =
    let r = Driver.compile ~config ~capture:true store in
    (Tutil.diag_strings r.Driver.diags, r.Driver.log)
  in
  let diags, log = run () in
  Alcotest.(check bool) "the compile deadlocks" true
    (List.exists (Tutil.contains ~sub:"compilation deadlocked") diags);
  let same what (d, l) =
    Alcotest.(check (list string)) (what ^ ": same diagnostics") diags d;
    Alcotest.(check bool) (what ^ ": same log") true (l = log)
  in
  same "second run" (run ());
  same "on a spawned domain" (Domain.join (Domain.spawn run));
  let on_domains () =
    Tutil.diag_strings (Driver.compile_domains ~config ~domains:1 store).Driver.d_diags
  in
  let d1 = on_domains () in
  Alcotest.(check (list string)) "compile_domains: same diagnostics on repeat" d1 (on_domains ())

(* --- span reconstruction and critical path on a canned log --- *)

(* A producer/consumer schedule: the consumer DKY-blocks on the
   producer's scope from t=3 until the signal at t=6, then runs to
   t=10.  Written directly as records, independent of the engine. *)
let canned_log () =
  let mk seq time task kind = { Evlog.seq; time; task; kind } in
  [|
    mk 0 0.0 (-1) (Evlog.Task_spawn { task = 1; name = "producer"; cls = "defparse"; gate = -1 });
    mk 1 0.0 (-1) (Evlog.Task_spawn { task = 2; name = "consumer"; cls = "shortgen"; gate = -1 });
    mk 2 1.0 (-1) (Evlog.Task_start { task = 1 });
    mk 3 2.0 (-1) (Evlog.Task_start { task = 2 });
    mk 4 3.0 2 (Evlog.Dky_block { scope = 5; scope_name = "M.def"; sym = "x"; ev = 9 });
    mk 5 3.0 2 (Evlog.Ev_block { ev = 9; name = "M.def.complete"; producer = 1 });
    mk 6 6.0 1 (Evlog.Complete { scope = 5; scope_name = "M.def" });
    mk 7 6.0 1 (Evlog.Ev_signal { ev = 9; name = "M.def.complete" });
    mk 8 6.0 1 (Evlog.Ev_wake { ev = 9; task = 2 });
    mk 9 6.0 2 (Evlog.Dky_unblock { scope = 5; scope_name = "M.def"; sym = "x"; ev = 9 });
    mk 10 6.0 (-1) (Evlog.Task_finish { task = 1 });
    mk 11 10.0 (-1) (Evlog.Task_finish { task = 2 });
  |]

let test_span_canned () =
  match Span.of_log (canned_log ()) with
  | [ p; c ] ->
      Alcotest.(check string) "producer name" "producer" p.Span.sp_name;
      Alcotest.(check (float 1e-9)) "producer queued 0..1" 1.0 (Span.total p Span.Queue);
      Alcotest.(check (float 1e-9)) "producer ran 1..6" 5.0 (Span.total p Span.Run);
      Alcotest.(check (float 1e-9)) "consumer queued 0..2" 2.0 (Span.total c Span.Queue);
      Alcotest.(check (float 1e-9)) "consumer DKY-blocked 3..6" 3.0 (Span.total c Span.Dky_wait);
      Alcotest.(check (float 1e-9)) "consumer ran 2..3 and 6..10" 5.0 (Span.total c Span.Run);
      Alcotest.(check (float 1e-9)) "consumer finish time" 10.0 c.Span.sp_finished;
      let busy = Span.busy_by_class [ p; c ] in
      Alcotest.(check (float 1e-9)) "busy by class: defparse" 5.0 (List.assoc "defparse" busy);
      Alcotest.(check (float 1e-9)) "busy by class: shortgen" 5.0 (List.assoc "shortgen" busy)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let check_tiling cp =
  Alcotest.(check (float 1e-6)) "hops tile the end-to-end time" cp.Critpath.cp_end
    (Critpath.attributed_total cp);
  Alcotest.(check (float 1e-9)) "no unattributed residue" 0.0 cp.Critpath.cp_unattributed

let test_critpath_canned () =
  let cp = Critpath.compute (canned_log ()) in
  Alcotest.(check (float 1e-9)) "end is the last finish" 10.0 cp.Critpath.cp_end;
  check_tiling cp;
  (* the consumer's final run and its DKY block must both appear *)
  Alcotest.(check (float 1e-9)) "codegen on the path" 5.0
    (List.assoc "codegen" cp.Critpath.cp_buckets);
  Alcotest.(check bool) "DKY block on the path" true
    (List.mem_assoc "dky-block" cp.Critpath.cp_buckets
    || List.mem_assoc "completion-wait" cp.Critpath.cp_buckets)

let test_critpath_driver_log () =
  let c = Driver.compile ~config:Driver.default_config ~capture:true (small_store ()) in
  let end_time = c.Driver.sim.Sched.Des_engine.end_time in
  let cp = Critpath.compute ~end_time c.Driver.log in
  Alcotest.(check (float 1e-6)) "path ends at the engine's end time" end_time cp.Critpath.cp_end;
  check_tiling cp;
  Alcotest.(check bool) "non-empty bottleneck chain" true (Critpath.top cp 5 <> [])

(* --- the profile report and its exporters --- *)

let profile_of store =
  let c = Driver.compile ~config:Driver.default_config ~capture:true ~telemetry:true store in
  Profile.make
    ~module_name:(Mcc_core.Source_store.main_name store)
    ~procs:Driver.default_config.Driver.procs
    ~strategy:(Mcc_sem.Symtab.dky_name Driver.default_config.Driver.strategy)
    ~end_time:c.Driver.sim.Sched.Des_engine.end_time
    ~seconds_per_unit:Sched.Costs.seconds_per_unit
    ~metrics:(Option.value ~default:[] c.Driver.telemetry)
    c.Driver.log

let test_profile_render () =
  let p = profile_of (small_store ()) in
  Alcotest.(check bool) "phase totals sum to end-to-end time" true (Profile.tiles_end p);
  let s = Profile.render p in
  Alcotest.(check bool) "table confirms the tiling" true (Tutil.contains ~sub:"(= end-to-end)" s);
  Alcotest.(check bool) "attribution section" true
    (Tutil.contains ~sub:"critical-path attribution" s);
  Alcotest.(check bool) "busy section" true (Tutil.contains ~sub:"busy time by class" s)

let test_profile_exports_validate () =
  let p = profile_of (small_store ()) in
  (match Json.validate (Profile.to_json p) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profile JSON invalid: %s" e);
  Alcotest.(check bool) "JSON declares its schema" true
    (Tutil.contains ~sub:"\"schema\":\"mcc-profile-v1\"" (Profile.to_json p));
  match Prom.validate (Profile.to_prometheus p) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profile Prometheus text invalid: %s" e

(* Task ids are allocated from a process-global counter, so raw ids in
   the hop list shift between two compiles *within one process*; the
   real guarantee — two processes, same config, byte-identical exports
   — is checked at the CLI level by CI.  Here we assert everything
   id-free is byte-identical across back-to-back compiles. *)
let test_profile_deterministic () =
  let p1 = profile_of (small_store ()) and p2 = profile_of (small_store ()) in
  Alcotest.(check string) "Prometheus export byte-identical" (Profile.to_prometheus p1)
    (Profile.to_prometheus p2);
  Alcotest.(check (float 1e-9)) "same end-to-end time" p1.Profile.p_end p2.Profile.p_end;
  Alcotest.(check bool) "same attribution buckets" true
    (p1.Profile.p_crit.Critpath.cp_buckets = p2.Profile.p_crit.Critpath.cp_buckets)

let test_telemetry_zero_cost () =
  let off = Driver.compile ~config:Driver.default_config (small_store ()) in
  let on = Driver.compile ~config:Driver.default_config ~capture:true ~telemetry:true (small_store ()) in
  Alcotest.(check bool) "telemetry off leaves no snapshot" true (off.Driver.telemetry = None);
  Alcotest.(check int) "telemetry off leaves no log" 0 (Array.length off.Driver.log);
  Alcotest.(check (float 1e-9)) "identical virtual end time either way"
    off.Driver.sim.Sched.Des_engine.end_time on.Driver.sim.Sched.Des_engine.end_time

(* --- validators: negative cases --- *)

let test_json_validate () =
  List.iter
    (fun s ->
      match Json.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "rejected valid JSON %S: %s" s e)
    [ "{}"; "[1,2.5,-3]"; "{\"a\":[true,false,null],\"b\":\"x\\n\"}"; "\"\"" ];
  List.iter
    (fun s ->
      match Json.validate s with
      | Ok () -> Alcotest.failf "accepted invalid JSON %S" s
      | Error _ -> ())
    [ "{"; "{\"a\":1,}"; "[1 2]"; "{\"a\"}"; "nul"; "1 2" ]

let test_prom_validate () =
  let good =
    "# HELP x_total a counter\n# TYPE x_total counter\nx_total 1\n\
     y{cls=\"lexor\",q=\"a\\\"b\"} 2.5\n"
  in
  (match Prom.validate good with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected valid exposition: %s" e);
  List.iter
    (fun s ->
      match Prom.validate s with
      | Ok () -> Alcotest.failf "accepted invalid exposition %S" s
      | Error _ -> ())
    [ "9bad 1\n"; "x{cls=lexor} 1\n"; "x 1 2 3\n"; "x{cls=\"a\" 1\n"; "x notanumber\n" ]

(* --- Chrome trace export and WatchTool on a canned log --- *)

let canned_log extra =
  Array.mapi
    (fun seq (time, kind) -> { Evlog.seq; time; task = -1; kind })
    (Array.append
       [|
         (0.0, Evlog.Task_spawn { task = 1; name = "Lex Main"; cls = "lexor"; gate = -1 });
         (0.0, Evlog.Task_spawn { task = 2; name = "Gen Main.P"; cls = "shortgen"; gate = -1 });
         (0.0, Evlog.Busy { proc = 0; task = 1; t0 = 0.0; t1 = 40.0; barrier = false });
         (10.0, Evlog.Busy { proc = 1; task = 2; t0 = 10.0; t1 = 50.0; barrier = false });
       |]
       extra)

let test_trace_json_export () =
  let s = Trace_json.export (canned_log [||]) in
  (match Json.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace export is not valid JSON: %s" e);
  Alcotest.(check bool) "task names survive" true (Tutil.contains ~sub:"Lex Main" s);
  Alcotest.(check bool) "second task named too" true (Tutil.contains ~sub:"Gen Main.P" s)

let test_trace_json_instants () =
  let log =
    canned_log
      [|
        (12.0, Evlog.Fault_inject { fault = "crash-at-start"; victim = "Gen Main.P" });
        (20.0, Evlog.Task_retry { task = 2; attempt = 1 });
      |]
  in
  let s = Trace_json.export log in
  (match Json.validate s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace export with instants is not valid JSON: %s" e);
  Alcotest.(check bool) "fault instant present" true (Tutil.contains ~sub:"inject:crash-at-start" s);
  Alcotest.(check bool) "retry instant present" true (Tutil.contains ~sub:"retry" s)

let test_watchtool_canned () =
  let tr = Sched.Trace.of_log (canned_log [||]) in
  Alcotest.(check (list (pair int (float 0.0)))) "segments in order" [ (0, 40.0); (1, 50.0) ]
    (List.map (fun s -> (s.Sched.Trace.proc, s.Sched.Trace.t1)) tr.Sched.Trace.segs);
  let s = Mcc_stats.Watchtool.render tr ~procs:2 in
  let rows =
    List.filter
      (fun l -> String.length l > 2 && l.[0] = 'P')
      (String.split_on_char '\n' s)
  in
  Alcotest.(check int) "one row per processor" 2 (List.length rows);
  Alcotest.(check bool) "lexing painted" true (Tutil.contains ~sub:"L" s);
  let summary = Mcc_stats.Watchtool.summary tr ~procs:2 in
  Alcotest.(check bool) "summary has utilization" true (Tutil.contains ~sub:"utilization" summary)

(* --- processor activity against the run-units histogram --- *)

(* The engine observes [mcc_task_run_units] at the points where it
   emits a Run [Busy] record, so per-class busy time rebuilt from the
   log must equal the histogram's per-class sum (to rounding: the
   segments merge before they are summed). *)
let test_busy_matches_run_units () =
  let check label config store =
    let r = Driver.compile ~config ~capture:true ~telemetry:true store in
    let busy = Sched.Trace.busy_per_class (Sched.Trace.of_log r.Driver.log) in
    let snap = Option.get r.Driver.telemetry in
    List.iter
      (fun cls ->
        let units =
          let labels = [ ("cls", Sched.Task.cls_name cls) ] in
          match Metrics.find snap ~labels "mcc_task_run_units" with
          | Some { Metrics.s_value = Metrics.VHistogram { h_sum; _ }; _ } -> h_sum
          | _ -> 0.0
        in
        let b = busy.(Sched.Task.cls_priority cls) in
        if Float.abs (b -. units) > 1e-9 *. Float.max 1.0 units then
          Alcotest.failf "%s, %s: busy %.6f vs run units %.6f" label (Sched.Task.cls_name cls) b
            units)
      Sched.Task.classes;
    r
  in
  List.iter
    (fun i ->
      List.iter
        (fun procs ->
          ignore
            (check
               (Printf.sprintf "program %d on %d" i procs)
               { Driver.default_config with Driver.procs }
               (Mcc_synth.Suite.program i)))
        [ 1; 8 ])
    [ 2; 7; 19 ];
  let crashed =
    check "task-crash@1"
      {
        Driver.default_config with
        Driver.faults = [ Sched.Fault.parse "task-crash@1" ];
        fault_seed = 1;
      }
      (Mcc_synth.Suite.program 1)
  in
  Alcotest.(check bool) "the crash plan retried" true
    (crashed.Driver.robustness.Driver.r_retries > 0)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "disabled is a no-op" `Quick test_metrics_disabled_noop;
          Alcotest.test_case "deterministic snapshots" `Quick test_metrics_deterministic;
        ] );
      ( "evlog",
        [
          Alcotest.test_case "monotonic time asserted" `Quick test_evlog_monotonic_assert;
          Alcotest.test_case "log in append order" `Quick test_evlog_append_order;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "uncaptured compile leaves the outer log" `Quick
            test_nest_uncaptured_compile;
          Alcotest.test_case "captured compile has its own clock" `Quick test_nest_captured_compile;
          Alcotest.test_case "telemetry compile has its own registry" `Quick test_nest_telemetry;
          Alcotest.test_case "ids count per compile" `Quick test_nest_ids_per_compile;
        ] );
      ( "span",
        [ Alcotest.test_case "canned producer/consumer" `Quick test_span_canned ] );
      ( "critpath",
        [
          Alcotest.test_case "canned log tiles" `Quick test_critpath_canned;
          Alcotest.test_case "driver log tiles" `Quick test_critpath_driver_log;
        ] );
      ( "profile",
        [
          Alcotest.test_case "render" `Quick test_profile_render;
          Alcotest.test_case "exports validate" `Quick test_profile_exports_validate;
          Alcotest.test_case "deterministic" `Quick test_profile_deterministic;
          Alcotest.test_case "zero cost when off" `Quick test_telemetry_zero_cost;
        ] );
      ( "validators",
        [
          Alcotest.test_case "json" `Quick test_json_validate;
          Alcotest.test_case "prometheus" `Quick test_prom_validate;
        ] );
      ( "trace-json",
        [
          Alcotest.test_case "export" `Quick test_trace_json_export;
          Alcotest.test_case "fault instants" `Quick test_trace_json_instants;
        ] );
      ( "watchtool",
        [ Alcotest.test_case "canned trace" `Quick test_watchtool_canned ] );
      ( "busy",
        [ Alcotest.test_case "matches run-units histogram" `Quick test_busy_matches_run_units ] );
    ]
