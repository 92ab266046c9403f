(* End-to-end tests of fault injection and self-healing: spec grammar
   round-trips, transient faults recovering with byte-identical output
   and a clean happens-before log, permanent faults degrading to a
   sequential fallback or a precise diagnostic (never a hang), cache
   corruption healed by digest verification, and determinism of the
   whole recovery machinery across repeats and processor counts. *)

open Mcc_core
open Mcc_synth
module Fault = Mcc_sched.Fault
module Hb = Mcc_analysis.Hb

let fingerprint (r : Driver.result) =
  ( Mcc_codegen.Cunit.disassemble r.Driver.program,
    List.map Mcc_m2.Diag.to_string r.Driver.diags )

let compile ?(procs = 8) ?(capture = false) ?telemetry ?cache ?(seed = 1) specs st =
  let config =
    {
      Driver.default_config with
      Driver.procs;
      faults = List.map Fault.parse specs;
      fault_seed = seed;
    }
  in
  Driver.compile ~config ~capture ?telemetry
    ?cache:(Option.map (fun c -> Build_cache.graph c st) cache)
    st

let diag_mentions r sub =
  List.exists
    (fun d ->
      let s = Mcc_m2.Diag.to_string d in
      let ls = String.length s and lb = String.length sub in
      let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
      go 0)
    r.Driver.diags

(* --- spec grammar --- *)

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("roundtrip " ^ s) s (Fault.spec_to_string (Fault.parse s)))
    [
      "task-crash";
      "task-crash:procparse";
      "task-crash:victim@2";
      "dropped-wake%25";
      "stall:lexor@1";
      "corrupt-artifact";
      "source-error:M01L1@1!";
      "poison-import!";
      "early-complete:M.def@1";
    ];
  Alcotest.(check int) "parse_list length" 3
    (List.length (Fault.parse_list "task-crash@1, dropped-wake%50 ,stall"));
  Alcotest.(check int) "parse_list skips empties" 1 (List.length (Fault.parse_list "task-crash,,"))

let test_parse_rejects_malformed () =
  List.iter
    (fun s ->
      Alcotest.check_raises ("rejects " ^ s)
        (Invalid_argument "malformed")
        (fun () ->
          match Fault.parse s with
          | _ -> ()
          | exception Invalid_argument _ -> raise (Invalid_argument "malformed")))
    [ "explode"; "task-crash@0"; "task-crash@x"; "task-crash%200"; "task-crash@1%50"; "stall:" ]

(* --- transient faults: recover with byte-identical output --- *)

let test_transient_crash_identical () =
  let st = Suite.program 1 in
  let clean = Driver.compile ~config:Driver.default_config st in
  let r = compile ~capture:true [ "task-crash@1" ] st in
  Alcotest.(check bool) "ok" true r.Driver.ok;
  Alcotest.(check bool) "output identical" true (fingerprint clean = fingerprint r);
  let rb = r.Driver.robustness in
  Alcotest.(check bool) "fault fired" true (rb.Driver.r_injected >= 1);
  Alcotest.(check bool) "retried" true (rb.Driver.r_retries >= 1);
  Alcotest.(check (list string)) "no quarantine" [] rb.Driver.r_quarantined;
  let rep = Hb.check r.Driver.log in
  Alcotest.(check bool) ("hb clean: " ^ Hb.summary rep) true (Hb.ok rep);
  Alcotest.(check bool) "hb saw the injection" true (rep.Hb.n_injects >= 1);
  Alcotest.(check bool) "hb saw the retry" true (rep.Hb.n_retries >= 1)

let test_crash_storm_recovers () =
  let st = Suite.program 1 in
  let clean = Driver.compile ~config:Driver.default_config st in
  let r = compile ~seed:7 [ "task-crash%100" ] st in
  Alcotest.(check bool) "ok" true r.Driver.ok;
  Alcotest.(check bool) "output identical" true (fingerprint clean = fingerprint r);
  Alcotest.(check bool) "faults fired" true (r.Driver.robustness.Driver.r_injected >= 1)

let test_dropped_wake_watchdog () =
  let st = Suite.program 1 in
  let clean = Driver.compile ~config:Driver.default_config st in
  let r = compile ~capture:true [ "dropped-wake%100" ] st in
  Alcotest.(check bool) "ok" true r.Driver.ok;
  Alcotest.(check bool) "output identical" true (fingerprint clean = fingerprint r);
  let rb = r.Driver.robustness in
  Alcotest.(check bool) "wakes dropped" true (rb.Driver.r_injected >= 1);
  Alcotest.(check bool) "watchdog woke someone" true (rb.Driver.r_recovered_wakes >= 1);
  let rep = Hb.check r.Driver.log in
  Alcotest.(check bool) ("hb clean: " ^ Hb.summary rep) true (Hb.ok rep);
  Alcotest.(check bool) "hb saw the watchdog" true (rep.Hb.n_watchdog >= 1)

let test_stall_and_poison_contained () =
  let st = Suite.program 1 in
  let clean = Driver.compile ~config:Driver.default_config st in
  List.iter
    (fun spec ->
      let r = compile [ spec ] st in
      Alcotest.(check bool) (spec ^ " ok") true r.Driver.ok;
      Alcotest.(check bool)
        (spec ^ " output identical")
        true
        (fingerprint clean = fingerprint r);
      Alcotest.(check bool) (spec ^ " fired") true (r.Driver.robustness.Driver.r_injected >= 1))
    [ "stall@1"; "poison-import@1"; "source-error@1" ]

(* --- permanent faults: graceful degradation, never a hang --- *)

let test_permanent_crash_sequential_fallback () =
  let st = Suite.program 1 in
  let clean = Driver.compile ~config:Driver.default_config st in
  let r = compile [ "task-crash:defparse@1!" ] st in
  Alcotest.(check bool) "ok via fallback" true r.Driver.ok;
  Alcotest.(check bool) "output identical" true (fingerprint clean = fingerprint r);
  let rb = r.Driver.robustness in
  Alcotest.(check bool) "quarantined" true (rb.Driver.r_quarantined <> []);
  Alcotest.(check int) "one sequential fallback" 1 rb.Driver.r_seq_fallbacks

let test_permanent_source_error_diagnosed () =
  let st = Suite.program 1 in
  let r = compile [ "source-error:M01L1@1!" ] st in
  Alcotest.(check bool) "not ok" false r.Driver.ok;
  Alcotest.(check bool) "precise diagnostic" true (diag_mentions r "injected I/O error");
  Alcotest.(check bool) "fault fired" true (r.Driver.robustness.Driver.r_injected >= 1)

(* --- cache corruption: verification heals, tampering never installs --- *)

let test_corrupt_artifact_rebuilt () =
  let st = Suite.program 1 in
  (* prime, then take a fault-free warm baseline from a second cache
     primed identically *)
  let cache = Build_cache.create () in
  let _prime = Tutil.compile_cached cache st in
  let warm = Tutil.compile_cached cache st in
  Alcotest.(check bool) "warm run hits" true (warm.Driver.cache_hits <> []);
  let r = compile ~cache [ "corrupt-artifact@1" ] st in
  Alcotest.(check bool) "ok" true r.Driver.ok;
  Alcotest.(check bool) "output identical" true (fingerprint warm = fingerprint r);
  Alcotest.(check bool) "rebuilt after corruption" true
    (r.Driver.robustness.Driver.r_corrupt_rebuilds >= 1);
  Alcotest.(check bool) "cache counted the corruption" true (Build_cache.corrupt_count cache >= 1)

let test_cache_rejects_tampered_artifact () =
  let st = Suite.program 1 in
  let cache = Build_cache.create () in
  let _ = Tutil.compile_cached cache st in
  match Build_cache.interfaces cache with
  | [] -> Alcotest.fail "priming stored no artifacts"
  | a :: _ ->
      let entry = Option.get (Build_cache.latest cache a.Artifact.a_name) in
      let fp = Build_cache.stored_fingerprint entry in
      let source = Build_cache.stored_source entry in
      Alcotest.(check bool) "pristine artifact verifies" true (Artifact.verify a);
      let tampered = { a with Artifact.a_digest = "0123456789abcdef0123456789abcdef" } in
      Alcotest.(check bool) "tampered artifact fails verify" false (Artifact.verify tampered);
      let _, _, inval0 = Build_cache.counters cache in
      let corrupt0 = Build_cache.corrupt_count cache in
      Build_cache.store_interface cache ~fp ~source tampered;
      let probe = Build_cache.find_interface cache ~fp in
      Alcotest.(check bool) "probe is a miss, not a silent hit" true (probe = None);
      let _, _, inval1 = Build_cache.counters cache in
      Alcotest.(check bool) "invalidation counted" true (inval1 > inval0);
      Alcotest.(check bool) "corruption counted" true (Build_cache.corrupt_count cache > corrupt0);
      (* the cache healed itself: restore and probe again *)
      Build_cache.store_interface cache ~fp ~source a;
      Alcotest.(check bool) "healed probe hits" true
        (Build_cache.find_interface cache ~fp <> None)

(* Both quarantine paths, a crash before the body ran (retries
   exhausted) and a crash at a resume point, count in the metric. *)
let test_quarantine_metric_counts_every_task () =
  let st = Suite.program 1 in
  let quarantined =
    List.map
      (fun seed ->
        let r = compile ~telemetry:true ~seed [ "task-crash%20" ] st in
        let n = List.length r.Driver.robustness.Driver.r_quarantined in
        let snap = Option.get r.Driver.telemetry in
        Alcotest.(check int)
          (Printf.sprintf "seed %d: metric = quarantined tasks" seed)
          n
          (int_of_float (Mcc_obs.Metrics.counter_total snap "mcc_fault_quarantine_total"));
        n)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "some task was quarantined" true (List.exists (fun n -> n > 0) quarantined)

(* --- determinism --- *)

let test_replay_deterministic () =
  let st = Suite.program 1 in
  let run () = compile ~seed:7 [ "task-crash@1"; "dropped-wake%100" ] st in
  let a = run () and b = run () in
  Alcotest.(check bool) "robustness identical" true (a.Driver.robustness = b.Driver.robustness);
  Alcotest.(check bool) "virtual end time identical" true
    (a.Driver.sim.Mcc_sched.Des_engine.end_time = b.Driver.sim.Mcc_sched.Des_engine.end_time);
  Alcotest.(check bool) "output identical" true (fingerprint a = fingerprint b)

let test_recovery_across_procs () =
  let st = Suite.program 1 in
  List.iter
    (fun procs ->
      let clean =
        Driver.compile ~config:{ Driver.default_config with Driver.procs } st
      in
      let r = compile ~procs [ "task-crash@1" ] st in
      let tag = Printf.sprintf "procs=%d" procs in
      Alcotest.(check bool) (tag ^ " ok") true r.Driver.ok;
      Alcotest.(check bool)
        (tag ^ " output identical")
        true
        (fingerprint clean = fingerprint r);
      Alcotest.(check bool) (tag ^ " fired") true (r.Driver.robustness.Driver.r_injected >= 1))
    [ 1; 2; 8 ]

let test_fault_free_run_reports_nothing () =
  let st = Suite.program 1 in
  let r = Driver.compile ~config:Driver.default_config st in
  Alcotest.(check bool) "no robustness activity" true
    (r.Driver.robustness = Driver.no_robustness);
  Alcotest.(check (list string)) "no deadlock report" [] r.Driver.deadlock

let () =
  Alcotest.run "faults"
    [
      ( "spec grammar",
        [
          Alcotest.test_case "round-trips" `Quick test_parse_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_parse_rejects_malformed;
        ] );
      ( "transient recovery",
        [
          Alcotest.test_case "crash retried, output identical" `Quick
            test_transient_crash_identical;
          Alcotest.test_case "crash storm recovers" `Quick test_crash_storm_recovers;
          Alcotest.test_case "dropped wakes re-delivered" `Quick test_dropped_wake_watchdog;
          Alcotest.test_case "stall/poison/source contained" `Quick
            test_stall_and_poison_contained;
        ] );
      ( "graceful degradation",
        [
          Alcotest.test_case "permanent crash falls back" `Quick
            test_permanent_crash_sequential_fallback;
          Alcotest.test_case "permanent source error diagnosed" `Quick
            test_permanent_source_error_diagnosed;
          Alcotest.test_case "quarantine metric counts every task" `Quick
            test_quarantine_metric_counts_every_task;
        ] );
      ( "cache corruption",
        [
          Alcotest.test_case "corrupt artifact rebuilt" `Quick test_corrupt_artifact_rebuilt;
          Alcotest.test_case "tampered artifact rejected" `Quick
            test_cache_rejects_tampered_artifact;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay identical" `Quick test_replay_deterministic;
          Alcotest.test_case "recovery across processor counts" `Quick
            test_recovery_across_procs;
          Alcotest.test_case "fault-free run reports nothing" `Quick
            test_fault_free_run_reports_nothing;
        ] );
    ]
