(* Tests for the statistics/reporting layer: speedups, quartiles, import
   analysis, lookup-statistics tables, WatchTool rendering. *)

open Mcc_core
open Mcc_stats
module Ls = Mcc_sem.Lookup_stats

let small_store () = Mcc_synth.Suite.program 2

let test_sweep_monotone_speedup () =
  let s = Speedup.sweep ~max_procs:4 (small_store ()) in
  Alcotest.(check (float 1e-9)) "speedup at 1 is 1" 1.0 (Speedup.speedup s 1);
  Alcotest.(check bool) "more processors never slower (this workload)" true
    (Speedup.speedup s 4 >= Speedup.speedup s 2 && Speedup.speedup s 2 > 1.0)

let test_aggregate () =
  let s1 = Speedup.sweep ~max_procs:2 (Mcc_synth.Suite.program 0) in
  let s2 = Speedup.sweep ~max_procs:2 (Mcc_synth.Suite.program 5) in
  let mn, mean, mx = Speedup.aggregate [ s1; s2 ] ~n:2 in
  Alcotest.(check bool) "min <= mean <= max" true (mn <= mean && mean <= mx)

let test_quartiles () =
  let fake t = { Speedup.store = small_store (); times = [| t /. Mcc_sched.Costs.seconds_per_unit |] } in
  Alcotest.(check bool) "q1" true (Speedup.quartile_of (fake 3.0) = Speedup.Q1);
  Alcotest.(check bool) "q2" true (Speedup.quartile_of (fake 7.0) = Speedup.Q2);
  Alcotest.(check bool) "q3" true (Speedup.quartile_of (fake 15.0) = Speedup.Q3);
  Alcotest.(check bool) "q4" true (Speedup.quartile_of (fake 50.0) = Speedup.Q4)

let test_best () =
  let sweeps = List.map (Speedup.sweep ~max_procs:2) [ Mcc_synth.Suite.program 0; Mcc_synth.Suite.program 8 ] in
  match Speedup.best sweeps ~n:2 with
  | Some b ->
      List.iter
        (fun s -> Alcotest.(check bool) "best is maximal" true (Speedup.speedup b 2 >= Speedup.speedup s 2))
        sweeps
  | None -> Alcotest.fail "no best"

let test_imports_analyze () =
  let defs =
    [
      ("A", "DEFINITION MODULE A;\nIMPORT B;\nEND A.\n");
      ("B", "DEFINITION MODULE B;\nIMPORT C;\nEND B.\n");
      ("C", "DEFINITION MODULE C;\nEND C.\n");
      ("Unrelated", "DEFINITION MODULE Unrelated;\nEND Unrelated.\n");
    ]
  in
  let store =
    Source_store.make ~main_name:"T"
      ~main_src:"IMPLEMENTATION MODULE T;\nIMPORT A;\nEND T.\n" ~defs ()
  in
  let interfaces, depth = Imports.analyze store in
  Alcotest.(check int) "reachable interfaces" 3 interfaces;
  Alcotest.(check int) "chain depth" 3 depth

(* A sequential compile's virtual time is its own: work charged before it
   in direct mode — an import scan, or any sub-quantum charge left in
   the accumulator — must not reach its [cost_units] (Table 1's
   "Seq. Compile Time"). *)
let test_seq_time_no_residue () =
  let store = small_store () in
  let alone = (Seq_driver.compile store).Seq_driver.cost_units in
  ignore (Imports.analyze store);
  Mcc_sched.Eff.work (Mcc_sched.Costs.quantum - 1);
  let after = (Seq_driver.compile store).Seq_driver.cost_units in
  Alcotest.(check (float 0.0)) "same cost units" alone after

let test_table1_renders () =
  let attrs = List.map Tables.measure_attrs [ Mcc_synth.Suite.program 0; Mcc_synth.Suite.program 3 ] in
  let s = Tables.table1 attrs in
  Alcotest.(check bool) "mentions attributes" true (Tutil.contains ~sub:"Module size" s);
  Alcotest.(check bool) "has streams row" true (Tutil.contains ~sub:"Number of Streams" s)

let test_table2_renders () =
  let c = Driver.compile ~config:Driver.default_config (small_store ()) in
  let s = Tables.table2 c.Driver.stats in
  Alcotest.(check bool) "simple section" true (Tutil.contains ~sub:"Simple Identifier" s);
  Alcotest.(check bool) "qualified section" true (Tutil.contains ~sub:"Qualified Identifier" s);
  Alcotest.(check bool) "self rows" true (Tutil.contains ~sub:"self" s)

let test_lookup_stats_percentages () =
  let c = Driver.compile ~config:Driver.default_config (small_store ()) in
  let st = c.Driver.stats in
  (* rows + never account for every simple lookup *)
  let rows_total =
    List.fold_left (fun acc (_, _, _, n) -> acc + n) 0 (Ls.rows st ~kind:Ls.Simple)
  in
  Alcotest.(check int) "rows sum to total" (Ls.total st ~kind:Ls.Simple)
    (rows_total + Ls.never st ~kind:Ls.Simple)

let test_lookup_stats_merge () =
  let a = Ls.create () and b = Ls.create () in
  Ls.record a ~kind:Ls.Simple ~found:Ls.FirstTry ~scope:Ls.CSelf ~compl:Ls.Complete;
  Ls.record b ~kind:Ls.Simple ~found:Ls.FirstTry ~scope:Ls.CSelf ~compl:Ls.Complete;
  Ls.record_never b ~kind:Ls.Simple;
  Ls.merge ~into:a b;
  Alcotest.(check int) "merged count" 2
    (Ls.get a ~kind:Ls.Simple ~found:Ls.FirstTry ~scope:Ls.CSelf ~compl:Ls.Complete);
  Alcotest.(check int) "merged never" 1 (Ls.never a ~kind:Ls.Simple)

let test_watchtool_renders () =
  let c = Driver.compile ~config:Driver.default_config ~capture:true (small_store ()) in
  let trace = Mcc_sched.Trace.of_log c.Driver.log in
  let s = Watchtool.render trace ~procs:8 in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "eight processor rows" true
    (List.length (List.filter (fun l -> String.length l > 2 && l.[0] = 'P') lines) = 8);
  Alcotest.(check bool) "activity shown" true
    (List.exists (fun l -> Tutil.contains ~sub:"L" l || Tutil.contains ~sub:"g" l) lines);
  let summary = Watchtool.summary trace ~procs:8 in
  Alcotest.(check bool) "summary has utilization" true (Tutil.contains ~sub:"utilization" summary)

let test_trace_utilization_bounds () =
  let c = Driver.compile ~config:Driver.default_config ~capture:true (small_store ()) in
  let u = Mcc_sched.Trace.utilization (Mcc_sched.Trace.of_log c.Driver.log) ~procs:8 in
  Alcotest.(check bool) "0 < u <= 1" true (u > 0.0 && u <= 1.0)

(* The paper's headline qualitative claims, asserted as regression
   guards over the full suite sweep (a few seconds of wall clock). *)
let test_paper_shape_invariants () =
  let suite = List.map Speedup.sweep (Mcc_synth.Suite.all ()) in
  let synth = Speedup.sweep (Mcc_synth.Suite.synth_best ()) in
  (* mean speedup grows with processor count *)
  let means = List.map (fun n -> Speedup.mean_speedup suite ~n) [ 2; 3; 4; 5; 6; 7; 8 ] in
  let rec monotone = function a :: (b :: _ as tl) -> a <= b +. 1e-9 && monotone tl | _ -> true in
  Alcotest.(check bool) "mean speedup nondecreasing in N" true (monotone means);
  (* speedup grows with program size: quartile means ordered at 8 procs *)
  let q n q_ = Speedup.mean_speedup (List.assoc q_ (Speedup.by_quartile suite)) ~n in
  Alcotest.(check bool) "Q1 <= Q2 <= Q3 <= Q4 at 8 processors" true
    (q 8 Speedup.Q1 <= q 8 Speedup.Q2
    && q 8 Speedup.Q2 <= q 8 Speedup.Q3
    && q 8 Speedup.Q3 <= q 8 Speedup.Q4);
  (* small programs saturate: Q1 gains little beyond 4 processors *)
  Alcotest.(check bool) "Q1 saturates after 4 processors" true (q 8 Speedup.Q1 -. q 4 Speedup.Q1 < 1.0);
  (* Synth.mod is the best case: above every suite member at 8 procs *)
  List.iter
    (fun s ->
      if Speedup.speedup s 8 > Speedup.speedup synth 8 then
        Alcotest.failf "%s beats Synth.mod at 8 processors"
          (Source_store.main_name s.Speedup.store))
    suite;
  (* Synth near-linear low and sublinear high, in the paper's bands *)
  Alcotest.(check bool) "Synth@2 close to 2" true (Speedup.speedup synth 2 > 1.9);
  Alcotest.(check bool) "Synth@8 in band" true
    (Speedup.speedup synth 8 > 5.5 && Speedup.speedup synth 8 < 8.0);
  (* mean speedup at 8 lands in the paper's neighbourhood *)
  let mean8 = Speedup.mean_speedup suite ~n:8 in
  Alcotest.(check bool) "suite mean@8 within [3.5, 5.0]" true (mean8 > 3.5 && mean8 < 5.0)

let test_overhead_band () =
  (* 1-processor concurrency overhead stays "a few percent" *)
  let seq, c1 =
    List.fold_left
      (fun (s, c) store ->
        let sq = Seq_driver.compile store in
        let c1 =
          Driver.compile ~config:{ Driver.default_config with Driver.procs = 1 } store
        in
        (s +. sq.Seq_driver.cost_units, c +. c1.Driver.sim.Mcc_sched.Des_engine.end_time))
      (0.0, 0.0)
      (Mcc_synth.Suite.all ())
  in
  let overhead = 100.0 *. (c1 -. seq) /. seq in
  Alcotest.(check bool) "overhead in [0%, 12%]" true (overhead > 0.0 && overhead < 12.0)

let () =
  Alcotest.run "stats"
    [
      ( "speedup",
        [
          Alcotest.test_case "sweep" `Quick test_sweep_monotone_speedup;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "best" `Quick test_best;
        ] );
      ( "imports",
        [
          Alcotest.test_case "analyze" `Quick test_imports_analyze;
          Alcotest.test_case "no residue in seq time" `Quick test_seq_time_no_residue;
        ] );
      ( "tables",
        [
          Alcotest.test_case "table1" `Quick test_table1_renders;
          Alcotest.test_case "table2" `Quick test_table2_renders;
          Alcotest.test_case "percentages" `Quick test_lookup_stats_percentages;
          Alcotest.test_case "merge" `Quick test_lookup_stats_merge;
        ] );
      ( "paper shape",
        [
          Alcotest.test_case "speedup invariants" `Slow test_paper_shape_invariants;
          Alcotest.test_case "overhead band" `Slow test_overhead_band;
        ] );
      ( "watchtool",
        [
          Alcotest.test_case "render" `Quick test_watchtool_renders;
          Alcotest.test_case "utilization" `Quick test_trace_utilization_bounds;
        ] );
    ]
