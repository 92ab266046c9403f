(* Tests for the analysis subsystem: the happens-before checker on
   hand-built logs (one per violation class), log capture through the
   driver, the schedule explorer, the early-publish fault injection, the
   suite seed threading and the Chrome trace export. *)

open Mcc_sched
module Evlog = Mcc_obs.Evlog
module Hb = Mcc_analysis.Hb
module Explorer = Mcc_analysis.Explorer
module Symtab = Mcc_sem.Symtab
module Driver = Mcc_core.Driver
module Suite = Mcc_synth.Suite
module Gen = Mcc_synth.Gen

let mk_log entries =
  Array.of_list
    (List.mapi (fun i (task, kind) -> { Evlog.seq = i; time = float_of_int i; task; kind }) entries)

let n_violations log = List.length (Hb.check log).Hb.violations

let has_violation p log = List.exists p (Hb.check log).Hb.violations

(* --- the checker on hand-built logs --- *)

let test_hb_empty_log () =
  let r = Hb.check [||] in
  Alcotest.(check bool) "empty log is clean" true (Hb.ok r);
  Alcotest.(check int) "no records" 0 r.Hb.n_records

let test_hb_clean_log () =
  let log =
    mk_log
      [
        (0, Evlog.Task_spawn { task = 1; name = "producer"; cls = "aux"; gate = -1 });
        (0, Evlog.Task_spawn { task = 2; name = "consumer"; cls = "aux"; gate = -1 });
        (1, Evlog.Task_start { task = 1 });
        (1, Evlog.Publish { scope = 5; scope_name = "M.def"; sym = "x" });
        (2, Evlog.Task_start { task = 2 });
        (2, Evlog.Dky_block { scope = 5; scope_name = "M.def"; sym = "y"; ev = 9 });
        (2, Evlog.Ev_block { ev = 9; name = "M.def.complete"; producer = 1 });
        (1, Evlog.Complete { scope = 5; scope_name = "M.def" });
        (1, Evlog.Ev_signal { ev = 9; name = "M.def.complete" });
        (1, Evlog.Ev_wake { ev = 9; task = 2 });
        (2, Evlog.Dky_unblock { scope = 5; scope_name = "M.def"; sym = "y"; ev = 9 });
        (2, Evlog.Observe { scope = 5; scope_name = "M.def"; sym = "x"; complete = true });
        (2, Evlog.Auth_miss { scope = 5; scope_name = "M.def"; sym = "y" });
        (1, Evlog.Task_finish { task = 1 });
        (2, Evlog.Task_finish { task = 2 });
      ]
  in
  let r = Hb.check log in
  if not (Hb.ok r) then
    Alcotest.failf "expected clean, got: %s"
      (String.concat "; " (List.map Hb.violation_to_string r.Hb.violations));
  Alcotest.(check int) "publishes counted" 1 r.Hb.n_publishes;
  Alcotest.(check int) "dky pairs counted" 1 r.Hb.n_dky_unblocks

let test_hb_observe_before_publish () =
  let log =
    mk_log [ (2, Evlog.Observe { scope = 5; scope_name = "M.def"; sym = "x"; complete = false }) ]
  in
  Alcotest.(check bool) "detected" true
    (has_violation (function Hb.Observe_before_publish _ -> true | _ -> false) log)

let test_hb_publish_after_complete () =
  let log =
    mk_log
      [
        (1, Evlog.Complete { scope = 5; scope_name = "M.def" });
        (1, Evlog.Publish { scope = 5; scope_name = "M.def"; sym = "late" });
      ]
  in
  Alcotest.(check bool) "detected" true
    (has_violation
       (function
         | Hb.Publish_after_complete { sym = "late"; publish_seq = 1; complete_seq = 0; _ } -> true
         | _ -> false)
       log)

let test_hb_miss_then_publish () =
  let log =
    mk_log
      [
        (2, Evlog.Auth_miss { scope = 5; scope_name = "M.def"; sym = "x" });
        (1, Evlog.Publish { scope = 5; scope_name = "M.def"; sym = "x" });
      ]
  in
  Alcotest.(check bool) "detected" true
    (has_violation (function Hb.Miss_then_publish _ -> true | _ -> false) log)

let test_hb_unmatched_dky_block () =
  let log =
    mk_log [ (2, Evlog.Dky_block { scope = 5; scope_name = "M.def"; sym = "y"; ev = 9 }) ]
  in
  Alcotest.(check bool) "detected" true
    (has_violation (function Hb.Unmatched_dky_block _ -> true | _ -> false) log)

let test_hb_unwoken_block () =
  let log = mk_log [ (2, Evlog.Ev_block { ev = 9; name = "e"; producer = -1 }) ] in
  Alcotest.(check bool) "detected" true
    (has_violation (function Hb.Unwoken_block _ -> true | _ -> false) log)

let test_hb_wake_before_signal () =
  let log = mk_log [ (0, Evlog.Ev_wake { ev = 9; task = 2 }) ] in
  Alcotest.(check bool) "detected" true
    (has_violation (function Hb.Wake_before_signal _ -> true | _ -> false) log)

let test_hb_start_before_gate () =
  let log =
    mk_log
      [
        (0, Evlog.Task_spawn { task = 3; name = "gated"; cls = "aux"; gate = 7 });
        (3, Evlog.Task_start { task = 3 });
      ]
  in
  Alcotest.(check bool) "detected" true
    (has_violation (function Hb.Start_before_gate { task = 3; gate = 7; _ } -> true | _ -> false) log);
  (* signaled first: clean (apart from the unsignaled nothing) *)
  let ok_log =
    mk_log
      [
        (0, Evlog.Task_spawn { task = 3; name = "gated"; cls = "aux"; gate = 7 });
        (1, Evlog.Ev_signal { ev = 7; name = "g" });
        (3, Evlog.Task_start { task = 3 });
      ]
  in
  Alcotest.(check int) "gate respected" 0 (n_violations ok_log)

let test_hb_wait_cycle () =
  let log =
    mk_log
      [
        (1, Evlog.Ev_block { ev = 4; name = "a"; producer = 2 });
        (2, Evlog.Ev_block { ev = 5; name = "b"; producer = 1 });
      ]
  in
  Alcotest.(check bool) "cycle detected" true
    (has_violation (function Hb.Wait_cycle _ -> true | _ -> false) log)

let test_hb_retry_without_fault () =
  let log =
    mk_log
      [
        (0, Evlog.Task_spawn { task = 1; name = "victim"; cls = "aux"; gate = -1 });
        (-1, Evlog.Task_retry { task = 1; attempt = 1 });
      ]
  in
  Alcotest.(check bool) "detected" true
    (has_violation (function Hb.Retry_without_fault { task = 1; _ } -> true | _ -> false) log);
  (* paired with its crash injection: clean *)
  let ok_log =
    mk_log
      [
        (0, Evlog.Task_spawn { task = 1; name = "victim"; cls = "aux"; gate = -1 });
        (-1, Evlog.Fault_inject { fault = "task-crash"; victim = "victim" });
        (-1, Evlog.Task_retry { task = 1; attempt = 1 });
      ]
  in
  Alcotest.(check int) "paired retry clean" 0 (n_violations ok_log)

let test_hb_quarantine_observed () =
  let prefix =
    [
      (0, Evlog.Task_spawn { task = 1; name = "defparse"; cls = "aux"; gate = -1 });
      (1, Evlog.Publish { scope = 5; scope_name = "M.def"; sym = "x" });
      (2, Evlog.Observe { scope = 5; scope_name = "M.def"; sym = "x"; complete = false });
      (-1, Evlog.Fault_inject { fault = "task-crash"; victim = "defparse" });
      (-1, Evlog.Task_quarantine { task = 1; name = "defparse" });
    ]
  in
  Alcotest.(check bool) "partial publish observed: detected" true
    (has_violation
       (function Hb.Quarantine_observed { sym = "x"; task = 1; _ } -> true | _ -> false)
       (mk_log prefix));
  (* the scope completed anyway: its data is whole, no violation *)
  let ok_log = mk_log (prefix @ [ (1, Evlog.Complete { scope = 5; scope_name = "M.def" }) ]) in
  Alcotest.(check int) "completed scope clean" 0 (n_violations ok_log)

let test_hb_watchdog_recovery_clean () =
  (* a dropped wake recovered by the watchdog leaves the block/wake
     pairing clean: the re-delivery emits an ordinary Ev_wake *)
  let log =
    mk_log
      [
        (2, Evlog.Ev_block { ev = 9; name = "e"; producer = -1 });
        (1, Evlog.Ev_signal { ev = 9; name = "e" });
        (-1, Evlog.Fault_inject { fault = "dropped-wake"; victim = "e" });
        (-1, Evlog.Watchdog_fire { ev = 9; task = 2 });
        (-1, Evlog.Ev_wake { ev = 9; task = 2 });
      ]
  in
  let r = Hb.check log in
  if not (Hb.ok r) then
    Alcotest.failf "expected clean, got: %s"
      (String.concat "; " (List.map Hb.violation_to_string r.Hb.violations));
  Alcotest.(check int) "watchdog counted" 1 r.Hb.n_watchdog;
  Alcotest.(check int) "injection counted" 1 r.Hb.n_injects

(* --- capture through the driver --- *)

let test_driver_capture () =
  let store = Suite.program 0 in
  let r = Driver.compile ~capture:true store in
  Alcotest.(check bool) "compiles" true r.Driver.ok;
  Alcotest.(check bool) "log captured" true (Array.length r.Driver.log > 0);
  let hb = Hb.check r.Driver.log in
  if not (Hb.ok hb) then
    Alcotest.failf "violations in a real run: %s"
      (String.concat "; " (List.map Hb.violation_to_string hb.Hb.violations));
  Alcotest.(check bool) "publishes seen" true (hb.Hb.n_publishes > 0);
  Alcotest.(check bool) "observes seen" true (hb.Hb.n_observes > 0)

let test_capture_does_not_change_timing () =
  let store = Suite.program 0 in
  let plain = Driver.compile store in
  let captured = Driver.compile ~capture:true store in
  Alcotest.(check bool) "default path logs nothing" true (Array.length plain.Driver.log = 0);
  Alcotest.(check (float 0.0)) "same virtual end time"
    plain.Driver.sim.Des_engine.end_time captured.Driver.sim.Des_engine.end_time;
  Alcotest.(check string) "same object code"
    (Mcc_codegen.Cunit.disassemble plain.Driver.program)
    (Mcc_codegen.Cunit.disassemble captured.Driver.program)

(* --- the schedule explorer --- *)

let test_explorer_clean () =
  let rep =
    Explorer.explore ~schedules:3 ~seed:11
      ~strategies:[ Symtab.Skeptical; Symtab.Optimistic ]
      ~procs_list:[ 2 ] (Suite.program 0)
  in
  Alcotest.(check int) "runs" 8 rep.Explorer.schedules_explored;
  Alcotest.(check int) "no violations" 0 rep.Explorer.total_violations;
  Alcotest.(check bool) "all equivalent" true rep.Explorer.all_equivalent

let test_explorer_detects_injected_fault () =
  let rep =
    Explorer.explore ~schedules:1 ~seed:11 ~strategies:[ Symtab.Skeptical ] ~procs_list:[ 4 ]
      ~inject_early_publish:"M00L0.def" (Suite.program 0)
  in
  Alcotest.(check bool) "violations found" true (rep.Explorer.total_violations > 0);
  Alcotest.(check bool) "offending scope named" true
    (List.exists
       (fun s ->
         (* the sample names the scope and the publish/complete pair *)
         let contains hay needle =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         contains s "M00L0.def")
       rep.Explorer.violation_samples);
  (* the fault plan is disarmed on exit: a following plain run is clean *)
  Alcotest.(check bool) "plan disarmed" true (not (Fault.armed ()));
  let clean = Driver.compile ~capture:true (Suite.program 0) in
  Alcotest.(check bool) "clean afterwards" true (Hb.ok (Hb.check clean.Driver.log))

(* --- the merge sees every frame --- *)

let test_hb_frame_after_merge () =
  let log frame_first =
    let frame = (3, Evlog.Frame_add { key = "M!def" }) in
    let start = (2, Evlog.Task_start { task = 2 }) in
    mk_log
      ([ (0, Evlog.Task_spawn { task = 2; name = "merge:M"; cls = "merge"; gate = -1 }) ]
      @ if frame_first then [ frame; start ] else [ start; frame ])
  in
  Alcotest.(check int) "frame before merge is clean" 0 (n_violations (log true));
  Alcotest.(check bool) "frame after merge detected" true
    (has_violation
       (function
         | Hb.Frame_after_merge { key = "M!def"; frame_seq = 2; merge_seq = 1 } -> true
         | _ -> false)
       (log false))

(* Every global frame of a real DES compile reaches the merger before
   the merge task starts, at every processor count and DKY strategy. *)
let test_suite_frames_before_merge () =
  List.iter
    (fun rank ->
      let store = Suite.program rank in
      List.iter
        (fun (strategy, procs) ->
          let config = { Driver.default_config with Driver.strategy; procs } in
          let r = Driver.compile ~config ~capture:true store in
          let frames =
            Array.fold_left
              (fun n (x : Evlog.record) ->
                match x.Evlog.kind with Evlog.Frame_add _ -> n + 1 | _ -> n)
              0 r.Driver.log
          in
          Alcotest.(check int)
            (Printf.sprintf "program %d: one frame per interface and the body" rank)
            (r.Driver.n_def_streams + 1) frames;
          let hb = Hb.check r.Driver.log in
          if not (Hb.ok hb) then
            Alcotest.failf "program %d, %s at %d: %s" rank (Symtab.dky_name strategy) procs
              (String.concat "; " (List.map Hb.violation_to_string hb.Hb.violations)))
        [
          (Symtab.Skeptical, 1); (Symtab.Skeptical, 8); (Symtab.Optimistic, 2); (Symtab.Avoidance, 4);
        ])
    [ 0; 1; 2 ]

(* --- suite seed threading --- *)

let test_gen_seed_override () =
  let shape = List.nth Suite.shapes 0 in
  let default_src = Mcc_core.Source_store.main_src (Gen.generate shape) in
  let same = Mcc_core.Source_store.main_src (Gen.generate ~seed:shape.Gen.seed shape) in
  let other = Mcc_core.Source_store.main_src (Gen.generate ~seed:(shape.Gen.seed + 1) shape) in
  Alcotest.(check string) "explicit shape seed is the default" default_src same;
  Alcotest.(check bool) "different seed, different program" true (default_src <> other);
  let other2 = Mcc_core.Source_store.main_src (Gen.generate ~seed:(shape.Gen.seed + 1) shape) in
  Alcotest.(check string) "seeded generation reproduces" other other2

let test_suite_seed () =
  let canonical = Mcc_core.Source_store.main_src (Suite.program 0) in
  let seeded = Mcc_core.Source_store.main_src (Suite.program ~seed:7 0) in
  Alcotest.(check bool) "seeded suite differs" true (canonical <> seeded);
  let r = Driver.compile (Suite.program ~seed:7 0) in
  Alcotest.(check bool) "seeded suite compiles" true r.Driver.ok

(* --- Chrome trace export --- *)

let test_trace_json () =
  let store = Suite.program 0 in
  let r = Driver.compile ~capture:true store in
  let json = Mcc_analysis.Trace_json.export r.Driver.log in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "traceEvents" true (contains "\"traceEvents\":[");
  Alcotest.(check bool) "complete events" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "thread metadata" true (contains "\"thread_name\"");
  Alcotest.(check bool) "task names resolved" true (contains "lexor:");
  (* every task, bootstrap included, is named by its Task_spawn record *)
  Alcotest.(check bool) "bootstrap named" true (contains "{\"name\":\"bootstrap\"");
  Alcotest.(check bool) "no unnamed task" false (contains "{\"name\":\"task#")

let () =
  Alcotest.run "analysis"
    [
      ( "hb",
        [
          Alcotest.test_case "empty log" `Quick test_hb_empty_log;
          Alcotest.test_case "clean log" `Quick test_hb_clean_log;
          Alcotest.test_case "observe before publish" `Quick test_hb_observe_before_publish;
          Alcotest.test_case "publish after complete" `Quick test_hb_publish_after_complete;
          Alcotest.test_case "miss then publish" `Quick test_hb_miss_then_publish;
          Alcotest.test_case "unmatched dky block" `Quick test_hb_unmatched_dky_block;
          Alcotest.test_case "unwoken block" `Quick test_hb_unwoken_block;
          Alcotest.test_case "wake before signal" `Quick test_hb_wake_before_signal;
          Alcotest.test_case "start before gate" `Quick test_hb_start_before_gate;
          Alcotest.test_case "wait cycle" `Quick test_hb_wait_cycle;
          Alcotest.test_case "retry without fault" `Quick test_hb_retry_without_fault;
          Alcotest.test_case "quarantine observed" `Quick test_hb_quarantine_observed;
          Alcotest.test_case "watchdog recovery clean" `Quick test_hb_watchdog_recovery_clean;
          Alcotest.test_case "frame after merge" `Quick test_hb_frame_after_merge;
          Alcotest.test_case "suite frames before merge" `Quick test_suite_frames_before_merge;
        ] );
      ( "capture",
        [
          Alcotest.test_case "driver capture" `Quick test_driver_capture;
          Alcotest.test_case "timing unchanged" `Quick test_capture_does_not_change_timing;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "clean matrix" `Quick test_explorer_clean;
          Alcotest.test_case "injected fault detected" `Quick test_explorer_detects_injected_fault;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "gen seed override" `Quick test_gen_seed_override;
          Alcotest.test_case "suite seed" `Quick test_suite_seed;
        ] );
      ("trace", [ Alcotest.test_case "chrome json" `Quick test_trace_json ]);
    ]
