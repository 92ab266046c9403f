(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4) on the synthetic suite and the deterministic
   simulated multiprocessor, printing measured results next to the
   paper's published numbers.

     table1    Table 1  - description of the test suite
     table2    Table 2  - identifier lookup statistics (skeptical)
     table3    Table 3  - summary of speedup data (also Figs. 1 and 3)
     fig2      Figure 2 - best-case self-relative speedup (Synth.mod)
     fig4      Figure 4 - WatchTool snapshots, one program per quartile
     fig7      Figure 7 - processor activity view of a typical compilation
     overhead  §4.2     - 1-processor concurrent vs sequential compiler
     dky       §2.2     - DKY strategy ablation (~10% variation)
     heading   §2.4     - procedure heading alternatives 1 vs 3 (~3%)
     sched     (extra)  - Supervisor priorities vs naive FIFO (§2.3.4)
     barrier   (extra)  - barrier vs handled token-queue events (§2.3.3)
     sensitivity (extra) - robustness of beta and token-block size
     incr      (extra)  - incremental builds: cold vs warm interface cache
     incr-fine (extra)  - declaration-level invalidation + early cutoff (BENCH_incr.json)
     serve     (extra)  - compile server: throughput, tails, fairness (BENCH_serve.json)
     farm      (extra)  - sharded build farm: scaling, node-loss recovery (BENCH_farm.json)
     zoo       (extra)  - workload zoo: corpus, shapes, scaling knees (BENCH_zoo.json)
     faults    (extra)  - fault injection x rate x strategy x procs recovery matrix
     micro     (extra)  - bechamel microbenchmarks of compiler phases
     all       everything above

   Usage: dune exec bench/main.exe [-- <experiment> ...] *)

open Mcc_core
open Mcc_synth
open Mcc_stats
module Des = Mcc_sched.Des_engine
module Ls = Mcc_sem.Lookup_stats

let say fmt = Printf.printf (fmt ^^ "\n%!")

let fail fmt = Printf.ksprintf (fun s -> say "FAIL: %s" s; exit 1) fmt

(* BENCH_SAMPLE=n selects an experiment's reduced configuration. *)
let sample () = Option.bind (Sys.getenv_opt "BENCH_SAMPLE") int_of_string_opt

(* Validate a JSON artifact, write it and report its size; a document
   that fails validation exits nonzero before anything is written. *)
let write_artifact path doc =
  let text = Mcc_obs.Json.to_string doc ^ "\n" in
  (match Mcc_obs.Json.validate text with
  | Ok () -> ()
  | Error e -> fail "%s does not validate: %s" path e);
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  say "wrote %s (%d bytes)" path (String.length text)

let header title =
  say "";
  say "================================================================";
  say "%s" title;
  say "================================================================"

(* Compilation sweeps are the expensive shared input of several
   experiments; compute once. *)
let suite_sweeps = lazy (List.map Speedup.sweep (Suite.all ()))
let synth_sweep = lazy (Speedup.sweep (Suite.synth_best ()))

let end_time (c : Driver.result) = c.Driver.sim.Des.end_time

(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: Description of Test Suite (paper §4.1)";
  let attrs = List.map Tables.measure_attrs (Suite.all ()) in
  say "%s" (Tables.table1 attrs);
  say "";
  say "paper:   size 2,371 / 13,180 / 336,312 B; seq time 2.30 / 10.27 / 107.85 s;";
  say "         interfaces 4 / 17 / 133; depth 1 / 5 / 12; procedures 2 / 16 / 221;";
  say "         streams 15 / 37 / 315";
  (* the paper's quartiles classify by 1-processor compilation time *)
  let q = List.map (fun a -> a.Tables.pa_c1_seconds) attrs in
  let count lo hi = List.length (List.filter (fun t -> t >= lo && t < hi) q) in
  say "quartile populations (by 1-processor time): %d / %d / %d / %d   (paper: 10 / 8 / 10 / 9)"
    (count 0.0 5.0) (count 5.0 10.0) (count 10.0 30.0) (count 30.0 1e9)

let table2 () =
  header "Table 2: Identifier Lookup Statistics (skeptical handling, 8 processors)";
  let stats = Ls.create () in
  List.iter
    (fun store ->
      let c = Driver.compile ~config:Driver.default_config store in
      Ls.merge ~into:stats c.Driver.stats)
    (Suite.all ());
  say "%s" (Tables.table2 stats);
  say "";
  let lookups = Ls.total stats ~kind:Ls.Simple + Ls.total stats ~kind:Ls.Qualified in
  say "DKY blockages: %d (%.3f%% of %s lookups); duplicate searches after DKY: %d"
    (Ls.dky_blocks stats)
    (100.0 *. float_of_int (Ls.dky_blocks stats) /. float_of_int lookups)
    (Mcc_util.Tablefmt.grouped lookups)
    (Ls.duplicate_searches stats);
  say "paper: simple 57.87%% first-try self, 3.55%% found in incomplete outer tables,";
  say "       0.08%% after DKY; qualified 4.00%% first-try incomplete, 2.70%% after DKY;";
  say "       blockage due to the DKY condition is relatively rare."

let table3 () =
  header "Table 3 / Figures 1 & 3: Summary of Speedup Data";
  let suite = Lazy.force suite_sweeps in
  let synth = Lazy.force synth_sweep in
  say "%s" (Tables.table3 ~suite ~synth);
  say "";
  say "paper:  N=2: 1.42/1.81/1.91 synth 1.99;  N=4: 1.91/3.07/3.43 synth 3.57;";
  say "        N=8: 1.95/4.34/5.47 synth 6.67 best-human 5.32;";
  say "        quartiles @8: Q1 2.43, Q2 2.89, Q3 4.19, Q4 5.02";
  say "";
  say "Figure 1 (test-suite mean self-relative speedup):";
  List.iter
    (fun n ->
      let mean = if n = 1 then 1.0 else (fun (_, m, _) -> m) (Speedup.aggregate suite ~n) in
      let bar = String.make (int_of_float (mean *. 10.0)) '*' in
      say "  %d procs |%-70s %.2f" n bar mean)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let fig2 () =
  header "Figure 2: Best Case Self Relative Speedup";
  let synth = Lazy.force synth_sweep in
  let suite = Lazy.force suite_sweeps in
  let best = Option.get (Speedup.best suite ~n:8) in
  say "  N   linear   Synth   best suite member (%s)"
    (Source_store.main_name best.Speedup.store);
  List.iter
    (fun n ->
      say "  %d   %6.2f   %5.2f   %5.2f" n (float_of_int n) (Speedup.speedup synth n)
        (Speedup.speedup best n))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  say "";
  say "paper: Synth 1.99 / 2.85 / 3.57 / 4.26 / 5.18 / 6.01 / 6.67 at N=2..8,";
  say "       best human module (\"VM\") 1.81 .. 5.32; Synth never incurs a DKY blockage.";
  let c = Driver.compile ~config:Driver.default_config (Suite.synth_best ()) in
  say "measured Synth DKY blockages: %d" (Ls.dky_blocks c.Driver.stats)

let render_one store label =
  let c = Driver.compile ~config:Driver.default_config store in
  say "--- %s: %d streams, %d tasks, end %.2f virtual s ---" label c.Driver.n_streams
    c.Driver.n_tasks c.Driver.sim.Des.end_seconds;
  say "%s" (Watchtool.render c.Driver.sim.Des.trace ~procs:8);
  say "%s" (Watchtool.summary c.Driver.sim.Des.trace ~procs:8)

let fig4 () =
  header "Figure 4: WatchTool Snapshots (one program per quartile + Synth, 8 processors)";
  say "%s" Watchtool.legend;
  let suite = Lazy.force suite_sweeps in
  let pick q =
    match List.assoc q (Speedup.by_quartile suite) with
    | [] -> None
    | l -> Some (List.nth l (List.length l / 2))
  in
  List.iter
    (fun q ->
      match pick q with
      | Some s ->
          render_one s.Speedup.store
            (Printf.sprintf "%s (%s, %.1f virtual s sequentialized)" (Speedup.quartile_name q)
               (Source_store.main_name s.Speedup.store)
               (Speedup.seconds_1p s))
      | None -> ())
    [ Speedup.Q1; Speedup.Q2; Speedup.Q3; Speedup.Q4 ];
  render_one (Suite.synth_best ()) "Synth.mod (best case)"

let fig7 () =
  header "Figure 7: Concurrent Compiler Processor Activity (typical compilation)";
  say "%s" Watchtool.legend;
  let suite = Lazy.force suite_sweeps in
  let q3 = List.assoc Speedup.Q3 (Speedup.by_quartile suite) in
  let s = List.nth q3 (List.length q3 / 2) in
  render_one s.Speedup.store (Source_store.main_name s.Speedup.store);
  say "";
  say "paper: lexical analysis at the left, parser/declaration analysis in the middle,";
  say "       statement analysis/code generation on the right; an activity lull in the";
  say "       center from DKY resolution and procedure-heading waits (§4.4)."

let overhead () =
  header "Paragraph 4.2: Concurrent compiler on one processor vs sequential compiler";
  let total_seq = ref 0.0 and total_c1 = ref 0.0 in
  List.iter
    (fun store ->
      let seq = Seq_driver.compile store in
      let c1 = Driver.compile ~config:{ Driver.default_config with Driver.procs = 1 } store in
      total_seq := !total_seq +. seq.Seq_driver.cost_units;
      total_c1 := !total_c1 +. end_time c1)
    (Suite.all ());
  say "suite total: sequential %.0f units, concurrent@1 %.0f units" !total_seq !total_c1;
  say "measured overhead: %.2f%%   (paper: 4.3%%)"
    (100.0 *. (!total_c1 -. !total_seq) /. !total_seq)

let dky () =
  header "Paragraph 2.2: DKY strategy ablation (8 processors, whole suite)";
  let stores = Suite.all () in
  let time_of strategy =
    List.fold_left
      (fun acc store ->
        acc +. end_time (Driver.compile ~config:{ Driver.default_config with Driver.strategy } store))
      0.0 stores
  in
  let skeptical = time_of Mcc_sem.Symtab.Skeptical in
  List.iter
    (fun strategy ->
      let t = if strategy = Mcc_sem.Symtab.Skeptical then skeptical else time_of strategy in
      say "  %-12s %12.0f units  (%+.2f%% vs skeptical)"
        (Mcc_sem.Symtab.dky_name strategy)
        t
        (100.0 *. (t -. skeptical) /. skeptical))
    Mcc_sem.Symtab.all_concurrent;
  say "";
  say "paper: the choice of DKY strategy caused a variation of about 10%% in overall";
  say "       compiler performance; skeptical handling is the recommended compromise."

let heading () =
  header "Paragraph 2.4: Procedure-heading information flow, alternative 1 vs 3";
  let time_of heading =
    List.fold_left
      (fun acc store ->
        acc +. end_time (Driver.compile ~config:{ Driver.default_config with Driver.heading } store))
      0.0 (Suite.all ())
  in
  let a1 = time_of Driver.Alt1 and a3 = time_of Driver.Alt3 in
  say "  alternative 1 (parent processes heading, entries copied): %12.0f units" a1;
  say "  alternative 3 (heading processed in both scopes):         %12.0f units" a3;
  say "  alternative 3 is %+.2f%% slower   (paper: about 3%% slower)"
    (100.0 *. (a3 -. a1) /. a1);
  let store = Suite.program 20 in
  let d1 =
    Mcc_codegen.Cunit.disassemble
      (Driver.compile ~config:{ Driver.default_config with Driver.heading = Driver.Alt1 } store)
        .Driver.program
  in
  let d3 =
    Mcc_codegen.Cunit.disassemble
      (Driver.compile ~config:{ Driver.default_config with Driver.heading = Driver.Alt3 } store)
        .Driver.program
  in
  say "  identical generated code under both alternatives: %b" (String.equal d1 d3)

let sched_ablation () =
  header "Extra ablation: Supervisor priority scheduling vs naive FIFO (paper 2.3.4)";
  say "(class priorities run lexors first and long procedures before short, \"to avoid";
  say " a long sequential tail at the end of the compilation\")";
  let total fifo n =
    List.fold_left
      (fun acc store ->
        acc
        +. end_time
             (Driver.compile
                ~config:{ Driver.default_config with Driver.fifo_sched = fifo; procs = n }
                store))
      0.0 (Suite.all ())
  in
  List.iter
    (fun n ->
      let prio = total false n and fifo = total true n in
      say "  N=%d: priorities %10.0f units, FIFO %10.0f units (FIFO %+.1f%%)" n prio fifo
        (100.0 *. (fifo -. prio) /. prio))
    [ 2; 4; 8 ];
  say "";
  say "Schedule exploration: perturbed ready-queue tie-breaking, happens-before";
  say "checked and output compared against each cell's canonical baseline";
  say "(suite program 1, 8 perturbed schedules per cell, seed 42):";
  let rep = Mcc_analysis.Explorer.explore ~schedules:8 ~seed:42 (Suite.program 1) in
  List.iter
    (fun line -> if line <> "" then say "  %s" line)
    (String.split_on_char '\n' (Mcc_analysis.Explorer.render rep));
  say "";
  say "Fault-injection check: a deliberate early-publish bug (scope M01L0.def)";
  say "must be caught by the same checker:";
  let fault =
    Mcc_analysis.Explorer.explore ~schedules:2 ~seed:42
      ~strategies:[ Mcc_sem.Symtab.Skeptical ] ~procs_list:[ 4 ]
      ~inject_early_publish:"M01L0.def" (Suite.program 1)
  in
  say "  %d violations across %d runs — %s" fault.Mcc_analysis.Explorer.total_violations
    fault.Mcc_analysis.Explorer.schedules_explored
    (if fault.Mcc_analysis.Explorer.total_violations > 0 then "DETECTED" else "MISSED (BUG)");
  List.iter (fun s -> say "    %s" s) fault.Mcc_analysis.Explorer.violation_samples

let barrier () =
  header "Extra ablation: barrier vs handled token-queue availability events";
  say "(the paper uses barrier events in token streams, paragraph 2.3.3; with this cost";
  say " model rescheduling is cheaper than holding the processor, so handled is default)";
  let store = Suite.synth_best () in
  List.iter
    (fun n ->
      let handled =
        end_time (Driver.compile ~config:{ Driver.default_config with Driver.procs = n } store)
      in
      Mcc_m2.Tokq.set_default_barrier true;
      let cb = Driver.compile ~config:{ Driver.default_config with Driver.procs = n } store in
      Mcc_m2.Tokq.set_default_barrier false;
      let barrier_t = end_time cb in
      let wait_time =
        List.fold_left
          (fun acc (s : Mcc_sched.Trace.seg) ->
            if s.Mcc_sched.Trace.kind = Mcc_sched.Trace.Waitbar then
              acc +. (s.Mcc_sched.Trace.t1 -. s.Mcc_sched.Trace.t0)
            else acc)
          0.0
          (Mcc_sched.Trace.segments cb.Driver.sim.Des.trace)
      in
      say "  N=%d: handled %10.0f units, barrier %10.0f (%+.1f%%), barrier-wait share %.1f%% of processor time"
        n handled barrier_t
        (100.0 *. (barrier_t -. handled) /. handled)
        (100.0 *. wait_time /. (barrier_t *. float_of_int n)))
    [ 1; 2; 4; 8 ]

let sensitivity () =
  header "Extra: sensitivity of the calibrated simulation parameters";
  say "-- memory-bus saturation coefficient (default %.4f) --" Mcc_sched.Costs.bus_beta;
  let sample = [ Suite.program 4; Suite.program 20; Suite.program 33 ] in
  List.iter
    (fun beta ->
      let mean_sp =
        List.fold_left
          (fun acc store ->
            let t1 =
              end_time
                (Driver.compile ~config:{ Driver.default_config with Driver.procs = 1; beta } store)
            in
            let t8 =
              end_time
                (Driver.compile ~config:{ Driver.default_config with Driver.procs = 8; beta } store)
            in
            acc +. (t1 /. t8))
          0.0 sample
        /. float_of_int (List.length sample)
      in
      say "  beta=%.4f: mean speedup@8 over a small/medium/large sample = %.2f" beta mean_sp)
    [ 0.0; 0.002; Mcc_sched.Costs.bus_beta; 0.007; 0.014 ];
  say "";
  say "-- token-block granularity (the paper uses 64-token blocks) --";
  let store = Suite.program 20 in
  List.iter
    (fun bs ->
      Mcc_m2.Tokq.set_block_size bs;
      let t1 =
        end_time (Driver.compile ~config:{ Driver.default_config with Driver.procs = 1 } store)
      in
      let t8 = end_time (Driver.compile ~config:Driver.default_config store) in
      say "  block=%3d tokens: concurrent@1 %9.0f units, @8 %9.0f units (speedup %.2f)" bs t1 t8
        (t1 /. t8))
    [ 8; 16; 64; 256; 1024 ];
  Mcc_m2.Tokq.set_block_size 64

let incr () =
  header "Extra: incremental builds with the content-addressed interface cache";
  say "(a warm cache installs interface artifacts instead of running def-module";
  say " streams, paying explicit hash + probe + install charges; table3/fig2/fig3";
  say " compile with the cache off and are unaffected)";
  let stores = Suite.all () in
  let compile ?cache ~procs st =
    Driver.compile ~config:{ Driver.default_config with Driver.procs } ?cache st
  in
  let total rs = List.fold_left (fun acc r -> acc +. end_time r) 0.0 rs in
  (* cache-off baselines (what every speedup figure is built from) *)
  let cold1 = List.map (compile ~procs:1) stores in
  let cold8 = List.map (compile ~procs:8) stores in
  (* one shared cache: the first pass fingerprints and captures, the
     second hits; the 8-processor warm pass reuses the same artifacts
     (interface artifacts are configuration-independent) *)
  let cache = Build_cache.create () in
  let prime1 = List.map (compile ~cache ~procs:1) stores in
  let warm1 = List.map (compile ~cache ~procs:1) stores in
  let warm8 = List.map (compile ~cache ~procs:8) stores in
  let t_cold1 = total cold1 and t_prime1 = total prime1 in
  let t_warm1 = total warm1 in
  let t_cold8 = total cold8 and t_warm8 = total warm8 in
  let hits rs = List.fold_left (fun acc r -> acc + List.length r.Driver.cache_hits) 0 rs in
  let misses rs = List.fold_left (fun acc r -> acc + List.length r.Driver.cache_misses) 0 rs in
  say "";
  say "whole suite (%d programs), total virtual work units:" (List.length stores);
  say "  1 proc : cold (no cache) %12.0f   cold+cache %12.0f (%+.2f%% fingerprint/probe overhead)"
    t_cold1 t_prime1
    (100.0 *. (t_prime1 -. t_cold1) /. t_cold1);
  say "  1 proc : warm            %12.0f   (%.1f%% fewer units than cold; %d hits, %d misses)"
    t_warm1
    (100.0 *. (t_cold1 -. t_warm1) /. t_cold1)
    (hits warm1) (misses warm1);
  say "  8 procs: cold (no cache) %12.0f   warm %12.0f (%.1f%% faster; artifacts reused across configs)"
    t_cold8 t_warm8
    (100.0 *. (t_cold8 -. t_warm8) /. t_cold8);
  say "  interface artifacts stored: %d" (List.length (Build_cache.interfaces cache));
  (* the incremental whole-program layer on top: a warm Project.compile
     reuses entire per-module results, paying only hash + probe *)
  let p_total rs =
    List.fold_left (fun acc (r : Project.result) -> acc +. r.Project.total_units) 0.0 rs
  in
  let p_cold = List.map Project.compile stores in
  let pc = Project.cache () in
  let _prime = List.map (fun st -> Project.compile ~cache:pc st) stores in
  let p_warm = List.map (fun st -> Project.compile ~cache:pc st) stores in
  let t_pcold = p_total p_cold and t_pwarm = p_total p_warm in
  let reused =
    List.fold_left (fun acc (r : Project.result) -> acc + List.length r.Project.reused) 0 p_warm
  in
  say "";
  say "incremental whole-program builds (Project.compile, default config):";
  say "  cold (no cache) %12.0f   warm %12.0f units (%d module results reused)"
    t_pcold t_pwarm reused;
  let savings = 100.0 *. (t_pcold -. t_pwarm) /. t_pcold in
  say "  >= 30%% warm whole-suite saving: %s (%.1f%%)"
    (if savings >= 30.0 then "PASS" else "FAIL") savings;
  let p_equal =
    List.for_all2
      (fun (c : Project.result) (w : Project.result) ->
        String.equal
          (Mcc_codegen.Cunit.disassemble c.Project.program)
          (Mcc_codegen.Cunit.disassemble w.Project.program))
      p_cold p_warm
  in
  say "  warm build output byte-identical to cold: %s" (if p_equal then "PASS" else "FAIL");
  (* cold/warm equivalence over the whole suite: byte-identical programs
     and identical diagnostics *)
  let equal =
    List.for_all2
      (fun (c : Driver.result) (w : Driver.result) ->
        String.equal
          (Mcc_codegen.Cunit.disassemble c.Driver.program)
          (Mcc_codegen.Cunit.disassemble w.Driver.program)
        && List.map Mcc_m2.Diag.to_string c.Driver.diags
           = List.map Mcc_m2.Diag.to_string w.Driver.diags)
      cold8 warm8
  in
  say "  warm output byte-identical to cold (all %d programs): %s" (List.length stores)
    (if equal then "PASS" else "FAIL");
  (* speedup-figure invariance: with the cache off, timings are exactly
     what they were before any cache existed in the process *)
  let again8 = List.map (compile ~procs:8) stores in
  let invariant =
    List.for_all2 (fun a b -> Float.equal (end_time a) (end_time b)) cold8 again8
  in
  say "  cache-off timings unchanged after cache use (fig2/fig3/table3 invariance): %s"
    (if invariant then "PASS" else "FAIL")

(* Fine-grained incremental artifact (BENCH_incr.json): declaration-level
   invalidation with early cutoff, measured over seeded edit streams on
   the suite's multi-interface programs.  Each program becomes a
   multi-module project (every interface gets a synthetic implementation)
   and receives a cumulative stream of single-declaration edits; after
   every edit the project is rebuilt twice — fine-grained (slice
   invalidation + early cutoff) and whole-module (the coarse baseline) —
   and the two must agree byte-for-byte with each other and, at the end
   of the stream, with a cold build.  BENCH_SAMPLE=n reduces the program
   count for CI.  Invariant failures exit nonzero. *)

type incr_acc = {
  mutable ia_edits : int;
  mutable ia_fine_rebuilt : int; (* modules recompiled, fine-grained *)
  mutable ia_modules : int; (* module slots across edits (ratio denominator) *)
  mutable ia_coarse_rebuilt : int;
  mutable ia_cutoffs : int; (* early-cutoff events *)
  mutable ia_fine_units : float;
  mutable ia_coarse_units : float;
  mutable ia_fine_max : int; (* worst single-edit fine rebuild count *)
}

let incr_fine () =
  header "Fine-grained incremental builds (BENCH_incr.json)";
  let module J = Mcc_obs.Json in
  let module Gen = Mcc_synth.Gen in
  let all = List.mapi (fun i s -> (i, s)) (Suite.all ()) in
  let projects =
    List.filter (fun (_, s) -> List.length (Source_store.def_names s) >= 2) all
  in
  let n_programs, edits_per =
    match sample () with
    | Some n when n > 0 ->
        say "BENCH_SAMPLE=%d: sampling %d multi-interface programs, 6 edits each" n
          (min n (List.length projects));
        (min n (List.length projects), 6)
    | _ -> (min 8 (List.length projects), 12)
  in
  let projects = List.filteri (fun i _ -> i < n_programs) projects in
  say "%d multi-interface suite programs, %d single-declaration edits each (seed 42)"
    (List.length projects) edits_per;
  let classes = [ Gen.Body_only; Gen.Sig_preserving; Gen.Sig_changing ] in
  let acc = Hashtbl.create 4 in
  List.iter
    (fun c ->
      Hashtbl.replace acc c
        {
          ia_edits = 0; ia_fine_rebuilt = 0; ia_modules = 0; ia_coarse_rebuilt = 0;
          ia_cutoffs = 0; ia_fine_units = 0.0; ia_coarse_units = 0.0; ia_fine_max = 0;
        })
    classes;
  let divergences = ref 0 in
  let observation (r : Project.result) =
    ( Mcc_codegen.Cunit.disassemble r.Project.program,
      List.map Mcc_m2.Diag.to_string r.Project.diags )
  in
  List.iter
    (fun (rank, s0) ->
      let edits = Gen.edit_stream ~seed:(42 + rank) ~n:edits_per s0 in
      let base = Gen.with_impls s0 in
      let fine_cache = Project.cache () and coarse_cache = Project.cache () in
      ignore (Project.compile ~cache:fine_cache base);
      ignore (Project.compile ~fine:false ~cache:coarse_cache base);
      List.iter
        (fun (e : Gen.edit) ->
          let rf = Project.compile ~cache:fine_cache e.Gen.e_store in
          let rc = Project.compile ~fine:false ~cache:coarse_cache e.Gen.e_store in
          if observation rf <> observation rc then begin
            divergences := !divergences + 1;
            say "  DIVERGENCE: program %d, %s edit of %s" rank
              (Gen.class_name e.Gen.e_class) e.Gen.e_target
          end;
          let a = Hashtbl.find acc e.Gen.e_class in
          a.ia_edits <- a.ia_edits + 1;
          a.ia_fine_rebuilt <- a.ia_fine_rebuilt + List.length rf.Project.recompiled;
          a.ia_modules <- a.ia_modules + List.length rf.Project.modules;
          a.ia_coarse_rebuilt <- a.ia_coarse_rebuilt + List.length rc.Project.recompiled;
          a.ia_cutoffs <- a.ia_cutoffs + List.length rf.Project.cutoffs;
          a.ia_fine_units <- a.ia_fine_units +. rf.Project.total_units;
          a.ia_coarse_units <- a.ia_coarse_units +. rc.Project.total_units;
          a.ia_fine_max <- max a.ia_fine_max (List.length rf.Project.recompiled))
        edits;
      (* end-of-stream oracle: the warm fine-grained view of the final
         store must match a cold build exactly *)
      let final = (List.nth edits (List.length edits - 1)).Gen.e_store in
      let warm = Project.compile ~cache:fine_cache final in
      let cold = Project.compile final in
      if observation warm <> observation cold then begin
        divergences := !divergences + 1;
        say "  DIVERGENCE: program %d, warm end-of-stream vs cold build" rank
      end)
    projects;
  say "";
  say "  %-15s %5s %14s %14s %8s %8s" "edit class" "edits" "rebuilt (fine)" "rebuilt (whole)"
    "cutoffs" "speedup";
  let class_rows =
    List.map
      (fun c ->
        let a = Hashtbl.find acc c in
        let ratio den num = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
        let speedup = if a.ia_fine_units > 0.0 then a.ia_coarse_units /. a.ia_fine_units else 1.0 in
        say "  %-15s %5d %8d/%-5d %8d/%-5d %8d %7.2fx" (Gen.class_name c) a.ia_edits
          a.ia_fine_rebuilt a.ia_modules a.ia_coarse_rebuilt a.ia_modules a.ia_cutoffs speedup;
        ( c,
          J.Obj
            [
              ("class", J.Str (Gen.class_name c));
              ("edits", J.Int a.ia_edits);
              ("fine_rebuilt_modules", J.Int a.ia_fine_rebuilt);
              ("coarse_rebuilt_modules", J.Int a.ia_coarse_rebuilt);
              ("module_slots", J.Int a.ia_modules);
              ("rebuild_ratio", J.Float (ratio a.ia_modules a.ia_fine_rebuilt));
              ("coarse_rebuild_ratio", J.Float (ratio a.ia_modules a.ia_coarse_rebuilt));
              ("max_modules_rebuilt_per_edit", J.Int a.ia_fine_max);
              ("cutoff_events", J.Int a.ia_cutoffs);
              ("fine_units", J.Float a.ia_fine_units);
              ("coarse_units", J.Float a.ia_coarse_units);
              ("speedup_vs_whole_module", J.Float speedup);
            ] ))
      classes
  in
  (* acceptance gates *)
  let body = Hashtbl.find acc Gen.Body_only in
  if body.ia_fine_max > 1 then
    fail "a body-only edit rebuilt %d modules (must be at most the edited one)" body.ia_fine_max;
  if body.ia_edits > 0 && body.ia_cutoffs < 1 then
    fail "body-only edits recorded no early-cutoff event";
  say "  body-only edits: worst case %d module per edit, %d cutoff events: PASS"
    body.ia_fine_max body.ia_cutoffs;
  let sigp = Hashtbl.find acc Gen.Sig_preserving in
  if sigp.ia_edits > 0 then begin
    if sigp.ia_fine_rebuilt >= sigp.ia_coarse_rebuilt then
      fail "sig-preserving edits: fine rebuilt %d modules, whole-module %d — no strict win"
        sigp.ia_fine_rebuilt sigp.ia_coarse_rebuilt;
    if sigp.ia_fine_units >= sigp.ia_coarse_units then
      fail "sig-preserving edits: fine cost %.0f units >= whole-module %.0f"
        sigp.ia_fine_units sigp.ia_coarse_units;
    say "  sig-preserving edits strictly beat whole-module invalidation: PASS"
  end;
  if !divergences > 0 then fail "%d observation divergence(s) over the edit streams" !divergences;
  say "  fine/whole-module/cold observation equivalence: PASS (0 divergences)";
  let doc =
    J.Obj
      [
        ("schema", J.Str "mcc-bench-incr-v1");
        ("seed", J.Int 42);
        ("programs", J.Int (List.length projects));
        ("edits_per_program", J.Int edits_per);
        ("classes", J.Arr (List.map snd class_rows));
        ("divergences", J.Int !divergences);
      ]
  in
  write_artifact "BENCH_incr.json" doc

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let faults () =
  header "Extra: deterministic fault injection and self-healing recovery";
  say "(fault spec x DKY strategy x procs on suite program 1; a transient fault must";
  say " recover with output byte-identical to the fault-free baseline, a permanent";
  say " one must degrade to a precise diagnostic — never a hang)";
  let store = Suite.program 1 in
  let fp (r : Driver.result) =
    ( Mcc_codegen.Cunit.disassemble r.Driver.program,
      List.map Mcc_m2.Diag.to_string r.Driver.diags )
  in
  let strategies = [ Mcc_sem.Symtab.Skeptical; Mcc_sem.Symtab.Optimistic ] in
  let procs_list = [ 2; 8 ] in
  let baselines = Hashtbl.create 8 in
  let base strategy procs =
    match Hashtbl.find_opt baselines (strategy, procs) with
    | Some b -> b
    | None ->
        let r =
          Driver.compile ~config:{ Driver.default_config with Driver.strategy; procs } store
        in
        let b = (fp r, end_time r) in
        Hashtbl.replace baselines (strategy, procs) b;
        b
  in
  (* transient: recovery restores the baseline output; permanent crash:
     the lost stream forces a sequential fallback, also byte-identical;
     permanent source error: a precise diagnostic, output differs *)
  let transient =
    [ "task-crash@1"; "task-crash%100"; "dropped-wake%100"; "stall@1"; "source-error@1";
      "poison-import@1" ]
  in
  let specs =
    List.map (fun s -> (s, `Identical)) transient
    @ [ ("task-crash:defparse!", `Identical); ("source-error:M01L1@1!", `Diagnostic) ]
  in
  say "  %-22s %-11s %5s %4s %4s %4s %4s %9s  %s" "spec" "strategy" "procs" "inj" "rty" "qtn"
    "wdg" "overhead" "output";
  let failures = ref 0 and rows = ref 0 in
  List.iter
    (fun (spec, expect) ->
      List.iter
        (fun strategy ->
          List.iter
            (fun procs ->
              (* [incr] here is the cache experiment above, not Stdlib.incr *)
              rows := !rows + 1;
              let bfp, bt = base strategy procs in
              let config =
                {
                  Driver.default_config with
                  Driver.strategy;
                  procs;
                  faults = Mcc_sched.Fault.parse_list spec;
                  fault_seed = 7;
                }
              in
              let r = Driver.compile ~config store in
              let rb = r.Driver.robustness in
              let identical = fp r = bfp in
              let pass =
                match expect with
                | `Identical -> identical
                | `Diagnostic ->
                    (not r.Driver.ok)
                    && List.exists
                         (fun d -> contains (Mcc_m2.Diag.to_string d) "injected I/O error")
                         r.Driver.diags
              in
              if not pass then failures := !failures + 1;
              say "  %-22s %-11s %5d %4d %4d %4d %4d %+8.1f%%  %s" spec
                (Mcc_sem.Symtab.dky_name strategy)
                procs rb.Driver.r_injected rb.Driver.r_retries
                (List.length rb.Driver.r_quarantined)
                rb.Driver.r_recovered_wakes
                (100.0 *. (end_time r -. bt) /. bt)
                ((if identical then "identical" else "differs")
                ^ (if rb.Driver.r_seq_fallbacks > 0 then " (seq fallback)" else "")
                ^ if pass then "" else "  FAIL"))
            procs_list)
        strategies)
    specs;
  (* same plan, same seed => same counters and same output, repeated *)
  let config =
    {
      Driver.default_config with
      Driver.faults = Mcc_sched.Fault.parse_list "task-crash@1,dropped-wake%100";
      Driver.fault_seed = 7;
    }
  in
  let a = Driver.compile ~config store and b = Driver.compile ~config store in
  let deterministic =
    a.Driver.robustness = b.Driver.robustness
    && Float.equal (end_time a) (end_time b)
    && fp a = fp b
  in
  say "";
  say "  recovery expectations met: %s (%d/%d rows)"
    (if !failures = 0 then "PASS" else "FAIL")
    (!rows - !failures) !rows;
  say "  replayed plan deterministic (counters, timing, output): %s"
    (if deterministic then "PASS" else "FAIL")

let micro () =
  header "Microbenchmarks (bechamel, real time per run)";
  let open Bechamel in
  let store = Suite.program 5 in
  let src = Source_store.main_src store in
  let run_store =
    Gen.generate
      { (List.nth Suite.shapes 0) with Gen.runnable = true; n_defs = 0; name = "R"; pad = 0 }
  in
  let prog = (Seq_driver.compile run_store).Seq_driver.program in
  let tests =
    [
      Test.make ~name:"lexer: lex M05.mod"
        (Staged.stage (fun () -> ignore (Mcc_m2.Lexer.all ~file:"x" src)));
      Test.make ~name:"sequential compile M05"
        (Staged.stage (fun () -> ignore (Seq_driver.compile store)));
      Test.make ~name:"DES compile M05 (8 procs)"
        (Staged.stage (fun () -> ignore (Driver.compile ~config:Driver.default_config store)));
      Test.make ~name:"VM: run compiled program"
        (Staged.stage (fun () -> ignore (Mcc_vm.Vm.run prog)));
    ]
  in
  List.iter
    (fun test ->
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.3) ~kde:None () in
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> say "  %-40s %14.1f ns/run" name est
          | _ -> say "  %-40s (no estimate)" name)
        results)
    tests

(* Machine-readable artifacts for CI: the suite speedup summary and the
   critical-path profile of the best-case program, as validated JSON.
   BENCH_SAMPLE=n truncates the suite to its first n programs (the CI
   reduced configuration); the truncation is reported, never silent.
   Schema or invariant failures exit nonzero so CI fails loudly. *)
let speedup_artifacts () =
  header "Speedup + critical-path artifacts (BENCH_speedup.json, BENCH_critpath.json)";
  let all = Suite.all () in
  let stores =
    match sample () with
    | Some n when n > 0 && n < List.length all ->
        say "BENCH_SAMPLE=%d: sampling first %d of %d suite programs" n n (List.length all);
        List.filteri (fun i _ -> i < n) all
    | _ -> all
  in
  let sweeps = List.map Speedup.sweep stores in
  let synth = Speedup.sweep (Suite.synth_best ()) in
  let module J = Mcc_obs.Json in
  let per_procs =
    List.init Speedup.max_procs (fun i ->
        let n = i + 1 in
        let mn, mean, mx = Speedup.aggregate sweeps ~n in
        J.Obj
          [
            ("procs", J.Int n);
            ("min", J.Float mn);
            ("mean", J.Float mean);
            ("max", J.Float mx);
            ("synth", J.Float (Speedup.speedup synth n));
          ])
  in
  let speedup_doc =
    J.Obj
      [
        ("schema", J.Str "mcc-bench-speedup-v1");
        ("suite_programs", J.Int (List.length stores));
        ("max_procs", J.Int Speedup.max_procs);
        ("per_procs", J.Arr per_procs);
      ]
  in
  (* critical-path profile of the best-case program on 8 processors *)
  let store = Suite.synth_best () in
  let c = Driver.compile ~config:Driver.default_config ~capture:true ~telemetry:true store in
  let profile =
    Mcc_obs.Profile.make
      ~module_name:(Source_store.main_name store)
      ~procs:Driver.default_config.Driver.procs
      ~strategy:(Mcc_sem.Symtab.dky_name Driver.default_config.Driver.strategy)
      ~end_time:(end_time c)
      ~seconds_per_unit:Mcc_sched.Costs.seconds_per_unit
      ~metrics:(Option.value ~default:[] c.Driver.telemetry)
      c.Driver.log
  in
  if not (Mcc_obs.Profile.tiles_end profile) then
    fail "critical-path attribution does not sum to the end-to-end time";
  let critpath_doc =
    J.Obj
      [
        ("schema", J.Str "mcc-bench-critpath-v1");
        ("profile", Mcc_obs.Profile.to_json_value profile);
      ]
  in
  write_artifact "BENCH_speedup.json" speedup_doc;
  write_artifact "BENCH_critpath.json" critpath_doc;
  say "attribution tiles end-to-end time: ok"

(* Conformance artifact (BENCH_conformance.json): a clean differential
   pass over the full strategy x processor matrix plus a planted-canary
   pass exercising detection and the shrinker.  The clean pass must find
   zero divergences; the canary must be detected and shrink to at most
   25% of the original program.  BENCH_SAMPLE=n reduces the clean-pass
   budget for the CI quick configuration. *)
let conformance () =
  header "Conformance harness (BENCH_conformance.json)";
  let module C = Mcc_check.Check in
  let budget =
    match sample () with
    | Some n when n > 0 ->
        let b = max 8 n in
        say "BENCH_SAMPLE=%d: clean-pass budget reduced to %d checks" n b;
        b
    | _ -> 60
  in
  let clean = C.run { C.default_config with C.budget; seed = 42 } in
  say "clean pass: %d checks (%d oracle, %d morph) over %d programs — %d divergences"
    clean.C.checks_run clean.C.oracle_checks clean.C.morph_checks clean.C.programs
    (List.length clean.C.divergences);
  if not (C.ok clean) then begin
    List.iter
      (fun d -> say "  divergence: %s %s %s (%s)" d.C.program d.C.cell d.C.field d.C.replay)
      clean.C.divergences;
    fail "clean conformance pass found %d divergence(s)" (List.length clean.C.divergences)
  end;
  let planted = C.run { C.default_config with C.budget = 6; seed = 42; plant = true } in
  if not planted.C.planted_detected then fail "planted cache-tamper canary was NOT detected";
  say "planted canary: detected";
  let orig, min_b, steps =
    match List.find_opt (fun d -> d.C.shrunk <> None) planted.C.divergences with
    | Some { C.shrunk = Some (o, m, s); _ } -> (o, m, s)
    | _ ->
        say "FAIL: no divergence carried a shrink result";
        exit 1
  in
  let ratio = float_of_int min_b /. float_of_int (max 1 orig) in
  say "shrinker: %d -> %d bytes in %d steps (ratio %.2f)" orig min_b steps ratio;
  if ratio > 0.25 then fail "shrink ratio %.2f exceeds the 0.25 budget" ratio;
  let module J = Mcc_obs.Json in
  let doc =
    J.Obj
      [
        ("schema", J.Str "mcc-bench-conformance-v1");
        ("seed", J.Int 42);
        ( "clean",
          J.Obj
            [
              ("budget", J.Int budget);
              ("checks_run", J.Int clean.C.checks_run);
              ("oracle_checks", J.Int clean.C.oracle_checks);
              ("morph_checks", J.Int clean.C.morph_checks);
              ("programs", J.Int clean.C.programs);
              ("divergences", J.Int (List.length clean.C.divergences));
            ] );
        ( "canary",
          J.Obj
            [
              ("detected", J.Bool planted.C.planted_detected);
              ("orig_bytes", J.Int orig);
              ("min_bytes", J.Int min_b);
              ("shrink_steps", J.Int steps);
              ("shrink_ratio", J.Float ratio);
            ] );
      ]
  in
  write_artifact "BENCH_conformance.json" doc

(* Compile-server benchmark (BENCH_serve.json): sustained throughput and
   tail latency of the long-lived build service.  Four measurements:
   (1) a capacity matrix {fifo,fair} x procs {1,2,8}, every cell served
   cold and then re-served warm through the same cache — warm throughput
   must be at least 2x cold, and 8 processors must out-serve 1; (2) a
   same-seed determinism gate — one cell re-run from scratch must
   produce a byte-identical serialized report; (3) a skewed-load
   starvation cell — one chatty client at 8x everyone's rate submitting
   heavy builds at the lowest priority; under DRR every victim session's
   p99 sojourn must beat its FIFO value and stay within 2x of the best
   victim's; (4) fault-injection and cache-eviction cells.  Every report
   in every cell passes the seq-vs-server conformance oracle.
   BENCH_SAMPLE=n shrinks the capacity matrix for CI; the skew cell
   always runs full size (it is cheap and its gates are calibrated).
   Gate failures exit nonzero. *)
let serve_bench () =
  header "Compile server (BENCH_serve.json)";
  let module J = Mcc_obs.Json in
  let module Srv = Mcc_serve.Server in
  let module Traffic = Mcc_serve.Traffic in
  let module Pol = Mcc_serve.Queue in
  let matrix_jobs =
    match sample () with
    | Some n when n > 0 ->
        let j = max 24 (min 120 (n * 12)) in
        say "BENCH_SAMPLE=%d: capacity matrix reduced to %d jobs per cell" n j;
        j
    | _ -> 120
  in
  let cfg ?(policy = Pol.Fair) ?(cap = 100_000) ?(faults = []) ?(fault_seed = 0) procs =
    {
      Srv.default_config with
      Srv.compile = { Driver.default_config with Driver.procs };
      policy;
      cap;
      faults;
      fault_seed;
    }
  in
  let check_conformance name c r =
    match Srv.verify c r with
    | Ok _ -> ()
    | Error e -> fail "%s: conformance: %s" name e
  in
  let session_json (s : Srv.session_stats) =
    J.Obj
      [
        ("session", J.Str s.Srv.ss_session);
        ("submitted", J.Int s.Srv.ss_submitted);
        ("served", J.Int s.Srv.ss_served);
        ("shed", J.Int s.Srv.ss_shed);
        ("mean_sojourn", J.Float s.Srv.ss_mean);
        ("p50", J.Float s.Srv.ss_p50);
        ("p99", J.Float s.Srv.ss_p99);
        ("max", J.Float s.Srv.ss_max);
      ]
  in
  let report_json (r : Srv.report) =
    J.Obj
      [
        ("policy", J.Str r.Srv.r_policy);
        ("procs", J.Int r.Srv.r_procs);
        ("submitted", J.Int r.Srv.r_submitted);
        ("served", J.Int r.Srv.r_served);
        ("warm", J.Int r.Srv.r_warm);
        ("shed", J.Int r.Srv.r_shed);
        ("failed", J.Int r.Srv.r_failed);
        ("retried", J.Int r.Srv.r_retried);
        ("batches", J.Int r.Srv.r_batches);
        ("batched_jobs", J.Int r.Srv.r_batched_jobs);
        ("max_batch", J.Int r.Srv.r_max_batch);
        ("end_seconds", J.Float r.Srv.r_end_seconds);
        ("throughput", J.Float r.Srv.r_throughput);
        ( "sojourn",
          J.Obj
            [
              ("mean", J.Float r.Srv.r_mean);
              ("p50", J.Float r.Srv.r_p50);
              ("p95", J.Float r.Srv.r_p95);
              ("p99", J.Float r.Srv.r_p99);
              ("max", J.Float r.Srv.r_max);
            ] );
        ("max_queue_depth", J.Int r.Srv.r_max_depth);
        ( "interface_cache",
          J.Obj
            [
              ("hits", J.Int r.Srv.r_iface_hits);
              ("misses", J.Int r.Srv.r_iface_misses);
              ("invalidations", J.Int r.Srv.r_iface_invalidations);
              ("evictions", J.Int r.Srv.r_iface_evictions);
            ] );
        ( "memo",
          J.Obj
            [
              ("hits", J.Int r.Srv.r_memo_hits);
              ("misses", J.Int r.Srv.r_memo_misses);
              ("evictions", J.Int r.Srv.r_memo_evictions);
            ] );
        ("sessions", J.Arr (List.map session_json r.Srv.r_sessions));
      ]
  in
  (* --- capacity matrix: cold vs warm across policy x procs ---------- *)
  let matrix_traffic =
    { Traffic.default with Traffic.jobs = matrix_jobs; mean_interarrival = 0.05; seed = 11 }
  in
  let trace = Traffic.generate matrix_traffic in
  say "capacity matrix: %d jobs, %d clients, mean interarrival 0.05 s (seed 11)" matrix_jobs
    matrix_traffic.Traffic.clients;
  say "  %-6s %5s %12s %12s %7s %9s %9s" "policy" "procs" "cold thr" "warm thr" "ratio"
    "cold p99" "warm p99";
  let matrix =
    List.concat_map
      (fun policy ->
        List.map
          (fun procs ->
            let name = Printf.sprintf "%s/%d" (Pol.policy_to_string policy) procs in
            let c = cfg ~policy procs in
            let cache = Srv.cache () in
            let cold = Srv.serve ~cache c trace in
            let warm = Srv.serve ~cache c trace in
            check_conformance (name ^ " cold") c cold;
            check_conformance (name ^ " warm") c warm;
            if cold.Srv.r_shed > 0 || warm.Srv.r_shed > 0 then
              fail "%s: unexpected shedding in an uncapped cell" name;
            if cold.Srv.r_served <> matrix_jobs then
              fail "%s: served %d of %d jobs" name cold.Srv.r_served matrix_jobs;
            if warm.Srv.r_warm <> matrix_jobs then
              fail "%s: warm pass answered only %d of %d jobs from the memo" name
                warm.Srv.r_warm matrix_jobs;
            let ratio = warm.Srv.r_throughput /. cold.Srv.r_throughput in
            say "  %-6s %5d %12.3f %12.3f %6.1fx %9.2f %9.2f"
              (Pol.policy_to_string policy) procs cold.Srv.r_throughput
              warm.Srv.r_throughput ratio cold.Srv.r_p99 warm.Srv.r_p99;
            if ratio < 2.0 then
              fail "%s: warm throughput only %.2fx cold (gate: >= 2x)" name ratio;
            ((policy, procs, cold),
             J.Obj
               [
                 ("policy", J.Str (Pol.policy_to_string policy));
                 ("procs", J.Int procs);
                 ("cold", report_json cold);
                 ("warm", report_json warm);
                 ("warm_over_cold", J.Float ratio);
               ]))
          [ 1; 2; 8 ])
      [ Pol.Fifo; Pol.Fair ]
  in
  List.iter
    (fun policy ->
      let thr procs =
        match
          List.find_opt (fun ((p, n, _), _) -> p = policy && n = procs) matrix
        with
        | Some ((_, _, cold), _) -> cold.Srv.r_throughput
        | None -> fail "missing %s/%d matrix cell" (Pol.policy_to_string policy) procs
      in
      if thr 8 <= thr 1 then
        fail "%s: cold throughput does not scale (8 procs %.3f <= 1 proc %.3f)"
          (Pol.policy_to_string policy) (thr 8) (thr 1))
    [ Pol.Fifo; Pol.Fair ];
  say "  warm >= 2x cold in every cell; 8-proc cold throughput beats 1-proc: PASS";
  (* --- determinism: same seed, fresh caches, byte-identical report -- *)
  let det_cell () =
    let c = cfg ~policy:Pol.Fair 8 in
    let r = Srv.serve ~cache:(Srv.cache ()) c trace in
    J.to_string (report_json r)
  in
  let d1 = det_cell () and d2 = det_cell () in
  if d1 <> d2 then fail "same-seed fair/8 reports differ — server is nondeterministic";
  say "determinism: fair/8 re-run from scratch is byte-identical: PASS";
  (* --- skewed load: DRR must protect the victims ------------------- *)
  let skew_traffic =
    {
      Traffic.default with
      Traffic.clients = 5;
      jobs = 300;
      seed = 7;
      mean_interarrival = 3.0;
      skew = true;
    }
  in
  let skew_trace = Traffic.generate skew_traffic in
  let chatty = Traffic.session_name 0 in
  let run_skew policy =
    let c = cfg ~policy ~cap:16 8 in
    let r = Srv.serve ~cache:(Srv.cache ~memo_cap:2 ()) c skew_trace in
    check_conformance (Pol.policy_to_string policy ^ " skew") c r;
    if r.Srv.r_shed = 0 then
      fail "%s skew: no shedding at cap 16 — load too light to gate on"
        (Pol.policy_to_string policy);
    r
  in
  let sfifo = run_skew Pol.Fifo and sfair = run_skew Pol.Fair in
  say "skewed load: %d jobs, %d clients, %s at %gx rate with heavy builds (seed 7)"
    skew_traffic.Traffic.jobs skew_traffic.Traffic.clients chatty Traffic.heavy_factor;
  say "  %-10s %10s %10s" "session" "fifo p99" "fair p99";
  let victims =
    List.filter_map
      (fun (f : Srv.session_stats) ->
        let name = f.Srv.ss_session in
        match
          List.find_opt (fun (g : Srv.session_stats) -> g.Srv.ss_session = name)
            sfair.Srv.r_sessions
        with
        | None -> fail "session %s missing from the fair report" name
        | Some g ->
            say "  %-10s %10.2f %10.2f%s" name f.Srv.ss_p99 g.Srv.ss_p99
              (if name = chatty then "   (chatty)" else "");
            if name = chatty then None else Some (name, f.Srv.ss_p99, g.Srv.ss_p99))
      sfifo.Srv.r_sessions
  in
  List.iter
    (fun (name, fifo_p99, fair_p99) ->
      if fair_p99 >= fifo_p99 then
        fail "victim %s: fair p99 %.2f does not beat fifo p99 %.2f" name fair_p99 fifo_p99)
    victims;
  let fair_p99s = List.map (fun (_, _, p) -> p) victims in
  let vmax = List.fold_left Float.max 0.0 fair_p99s in
  let vmin = List.fold_left Float.min infinity fair_p99s in
  if vmax > 2.0 *. vmin then
    fail "fair victim p99 spread %.2f..%.2f exceeds the 2x bound" vmin vmax;
  say "  every victim p99 improves under fair; spread %.2f..%.2f within 2x: PASS" vmin vmax;
  (* --- fault isolation under load ---------------------------------- *)
  let fault_spec = "task-crash:procparse!,corrupt-artifact@1" in
  let fault_traffic =
    { Traffic.default with Traffic.jobs = 40; mean_interarrival = 2.0; seed = 5 }
  in
  let fc = cfg ~faults:(Mcc_sched.Fault.parse_list fault_spec) ~fault_seed:3 8 in
  let fr = Srv.serve ~cache:(Srv.cache ~memo_cap:3 ()) fc (Traffic.generate fault_traffic) in
  check_conformance "faults" fc fr;
  if fr.Srv.r_served <> 40 then fail "faults: served %d of 40" fr.Srv.r_served;
  if fr.Srv.r_failed > 0 then fail "faults: %d jobs failed outright" fr.Srv.r_failed;
  if fr.Srv.r_iface_invalidations = 0 then
    fail "faults: corrupt-artifact plan never tripped an invalidation";
  say "faults (%s): 40/40 served, %d invalidations healed, %d retried, conformant: PASS"
    fault_spec fr.Srv.r_iface_invalidations fr.Srv.r_retried;
  (* --- eviction under a tight cache -------------------------------- *)
  let ev_traffic =
    { Traffic.default with Traffic.jobs = 60; mean_interarrival = 1.0; seed = 9 }
  in
  let ec = cfg 8 in
  let ecache =
    { Srv.bc = Build_cache.create ~cap_bytes:(8 * 1024) (); memo = Build_cache.memo ~cap:2 () }
  in
  let er = Srv.serve ~cache:ecache ec (Traffic.generate ev_traffic) in
  check_conformance "eviction" ec er;
  if er.Srv.r_iface_evictions = 0 then fail "eviction: 8 KiB interface cache never evicted";
  if er.Srv.r_memo_evictions = 0 then fail "eviction: 2-entry memo never evicted";
  say "eviction: %d interface + %d memo evictions under an 8 KiB / 2-entry cache, conformant: PASS"
    er.Srv.r_iface_evictions er.Srv.r_memo_evictions;
  (* --- artifact ----------------------------------------------------- *)
  let doc =
    J.Obj
      [
        ("schema", J.Str "mcc-bench-serve-v1");
        ("matrix_jobs", J.Int matrix_jobs);
        ("matrix", J.Arr (List.map snd matrix));
        ("determinism", J.Obj [ ("seed", J.Int matrix_traffic.Traffic.seed); ("identical", J.Bool true) ]);
        ( "skew",
          J.Obj
            [
              ("clients", J.Int skew_traffic.Traffic.clients);
              ("jobs", J.Int skew_traffic.Traffic.jobs);
              ("seed", J.Int skew_traffic.Traffic.seed);
              ("chatty_session", J.Str chatty);
              ("fifo", report_json sfifo);
              ("fair", report_json sfair);
            ] );
        ( "faults",
          J.Obj [ ("spec", J.Str fault_spec); ("report", report_json fr) ] );
        ("eviction", report_json er);
      ]
  in
  write_artifact "BENCH_serve.json" doc

(* Sharded build farm benchmark (BENCH_farm.json).  Four measurements
   over one def-heavy suite program: (1) a scaling matrix
   {1x8, 2x4, 4x2 nodes x per-node procs} x net {zero, lan, wan} — same
   total processor count per cell, so the spread is pure distribution
   overhead; gate: 4x2 at zero latency stays within [scaling_tolerance]
   of 1x8 (measured ~1.02-1.10x; interface closures distribute well
   enough that 2x4 usually beats 1x8).  (2) A node-loss recovery
   matrix: kill each node of a 3-node farm at two staged virtual
   times; gate: every cell converges without sequential fallback and
   matches the sequential oracle.  (3) Partition/heal and
   gray-node-hedged-fetch cells, oracle-gated.  (4) A same-seed
   determinism gate: one faulted cell re-run from scratch must
   serialize byte-identically (CI additionally cmps two whole runs of
   the artifact file).  BENCH_SAMPLE drops to a smaller program and
   trims the matrices.  Gate failures exit nonzero. *)
let farm_bench () =
  header "Sharded build farm (BENCH_farm.json)";
  let module J = Mcc_obs.Json in
  let module Farm = Mcc_farm.Farm in
  let module Netsim = Mcc_farm.Netsim in
  let scaling_tolerance = 1.35 in
  let sample = sample () <> None in
  let rank = if sample then 3 else 17 in
  if sample then say "BENCH_SAMPLE: suite rank %d, reduced matrices" rank;
  let store = Suite.program rank in
  let cfg ?(nodes = 3) ?(procs = 8) ?(net = Netsim.lan) ?(faults = "") () =
    {
      Farm.default_config with
      Farm.compile = { Driver.default_config with Driver.procs };
      nodes;
      net;
      faults = Mcc_sched.Fault.parse_list faults;
    }
  in
  let checked name c =
    let r = Farm.run c store in
    if not r.Farm.f_ok then fail "%s: farm compile reported failure" name;
    (match Farm.verify store r with
    | Ok () -> ()
    | Error e -> fail "%s: oracle divergence: %s" name e);
    r
  in
  let report_json (r : Farm.report) =
    J.Obj
      [
        ("nodes", J.Int r.Farm.f_nodes);
        ("procs_per_node", J.Int r.Farm.f_procs);
        ("net", J.Str r.Farm.f_net);
        ("shard", J.Str r.Farm.f_shard);
        ("tasks", J.Int r.Farm.f_tasks);
        ("makespan", J.Float r.Farm.f_makespan);
        ("fetches", J.Int r.Farm.f_fetches);
        ("serves", J.Int r.Farm.f_serves);
        ("local_fallbacks", J.Int r.Farm.f_local_fallbacks);
        ("rpc_retries", J.Int r.Farm.f_rpc_retries);
        ("rpc_drops", J.Int r.Farm.f_rpc_drops);
        ("hedges", J.Int r.Farm.f_hedges);
        ("hedge_wins", J.Int r.Farm.f_hedge_wins);
        ("steals", J.Int r.Farm.f_steals);
        ("reshards", J.Int r.Farm.f_reshards);
        ("crashes", J.Int r.Farm.f_crashes);
        ("detects", J.Int r.Farm.f_detects);
        ("slow_nodes", J.Int r.Farm.f_slow_nodes);
        ("partitions", J.Int r.Farm.f_partitions);
        ("replicas", J.Int r.Farm.f_replicas);
        ("seq_fallback", J.Bool r.Farm.f_seq_fallback);
        ("conformant", J.Bool true);
      ]
  in
  (* --- scaling matrix ----------------------------------------------- *)
  let layouts = [ (1, 8); (2, 4); (4, 2) ] in
  let nets =
    if sample then [ ("zero", Netsim.zero); ("lan", Netsim.lan) ]
    else [ ("zero", Netsim.zero); ("lan", Netsim.lan); ("wan", Netsim.wan) ]
  in
  say "scaling matrix: suite rank %d, layouts 1x8 2x4 4x2, nets %s" rank
    (String.concat " " (List.map fst nets));
  say "  %-6s %-5s %10s %8s %7s" "layout" "net" "makespan" "fetches" "steals";
  let scaling =
    List.concat_map
      (fun (net_name, net) ->
        List.map
          (fun (nodes, procs) ->
            let name = Printf.sprintf "%dx%d/%s" nodes procs net_name in
            let r = checked name (cfg ~nodes ~procs ~net ()) in
            say "  %dx%-4d %-5s %10.3f %8d %7d" nodes procs net_name r.Farm.f_makespan
              r.Farm.f_fetches r.Farm.f_steals;
            ((nodes, procs, net_name), r))
          layouts)
      nets
  in
  let makespan nodes procs net_name =
    match List.assoc_opt (nodes, procs, net_name) scaling with
    | Some r -> r.Farm.f_makespan
    | None -> fail "missing scaling cell %dx%d/%s" nodes procs net_name
  in
  let wide = makespan 4 2 "zero" and tall = makespan 1 8 "zero" in
  if wide > scaling_tolerance *. tall then
    fail "4x2 zero-latency makespan %.3f exceeds %.2fx the 1x8 makespan %.3f" wide
      scaling_tolerance tall;
  say "  4x2 zero-latency within %.2fx of 1x8 (%.3f vs %.3f): PASS" scaling_tolerance wide tall;
  (* --- node-loss recovery matrix ------------------------------------ *)
  let stages = if sample then [ 1 ] else [ 1; 4 ] in
  let victims = if sample then [ 1 ] else [ 0; 1; 2 ] in
  say "node-loss matrix: 3-node farm, kill node {%s} at heartbeat occurrence {%s}"
    (String.concat "," (List.map string_of_int victims))
    (String.concat "," (List.map string_of_int stages));
  let loss =
    List.concat_map
      (fun victim ->
        List.map
          (fun stage ->
            let spec = Printf.sprintf "node-crash:node%d@%d" victim stage in
            let r = checked spec (cfg ~faults:spec ()) in
            if r.Farm.f_crashes <> 1 then fail "%s: crash did not fire" spec;
            if r.Farm.f_detects < 1 then fail "%s: dead node never detected" spec;
            if r.Farm.f_seq_fallback then fail "%s: survivors failed to converge" spec;
            say "  %-22s detects=%d reshards=%d makespan=%.3f oracle=ok" spec r.Farm.f_detects
              r.Farm.f_reshards r.Farm.f_makespan;
            (spec, r))
          stages)
      victims
  in
  say "  every node-loss cell converged on the survivors and matched the oracle: PASS";
  (* --- partition/heal and hedged fetch ------------------------------ *)
  let part_spec = "partition@1" in
  let part = checked part_spec (cfg ~faults:part_spec ()) in
  if part.Farm.f_partitions < 1 then fail "partition cell: partition never fired";
  if part.Farm.f_seq_fallback then fail "partition cell: failed to converge";
  say "partition/heal: %d partition(s), converged, oracle=ok" part.Farm.f_partitions;
  let hedge_spec = "node-slow:node1!" in
  let hedge = checked hedge_spec (cfg ~faults:hedge_spec ()) in
  if hedge.Farm.f_slow_nodes < 1 then fail "hedge cell: gray failure never armed";
  if hedge.Farm.f_hedges < 1 then fail "hedge cell: no fetch ever hedged";
  say "hedged fetch: %d slow node(s), %d hedge(s), %d won, oracle=ok" hedge.Farm.f_slow_nodes
    hedge.Farm.f_hedges hedge.Farm.f_hedge_wins;
  (* --- determinism --------------------------------------------------- *)
  let det_spec = "node-crash:node1@1,msg-drop%20" in
  let det_cell () = J.to_string (report_json (checked det_spec (cfg ~faults:det_spec ()))) in
  if det_cell () <> det_cell () then
    fail "same-seed faulted farm runs serialize differently — farm is nondeterministic";
  say "determinism: same-seed faulted cell re-run is byte-identical: PASS";
  (* --- artifact ------------------------------------------------------ *)
  let doc =
    J.Obj
      [
        ("schema", J.Str "mcc-bench-farm-v1");
        ("suite_rank", J.Int rank);
        ("scaling_tolerance", J.Float scaling_tolerance);
        ( "scaling",
          J.Arr (List.map (fun (_, r) -> report_json r) scaling) );
        ( "node_loss",
          J.Arr
            (List.map
               (fun (spec, r) -> J.Obj [ ("inject", J.Str spec); ("report", report_json r) ])
               loss) );
        ("partition", J.Obj [ ("inject", J.Str part_spec); ("report", report_json part) ]);
        ("hedge", J.Obj [ ("inject", J.Str hedge_spec); ("report", report_json hedge) ]);
        ("determinism", J.Obj [ ("inject", J.Str det_spec); ("identical", J.Bool true) ]);
      ]
  in
  write_artifact "BENCH_farm.json" doc

(* Distributed tracing benchmark (BENCH_trace.json).  Three gated
   cells.  (1) Serve: a traced server run whose span forest must
   validate — every job's sojourn exactly tiled by queue/service and
   service by probe/compile/retry, zero gaps, overlaps or orphans —
   and whose three exports (OTLP, waterfall, Chrome) must serialize
   byte-identically across two from-scratch same-seed runs.  (2) Farm:
   a traced farm run whose cross-node critical path must sum to the
   end-to-end makespan exactly (the walk tiles [0, makespan] by
   construction; the gate is that nothing leaked) and must name a
   critical node.  (3) Flight recorder: an overloaded deadline+fault
   cell must trip, and every trip's trace id must resolve to a
   non-empty post-mortem span bundle.  Tracing itself is gated free:
   traced and untraced runs must report identical virtual end times.
   BENCH_SAMPLE shrinks the job counts.  Gate failures exit
   nonzero. *)
let trace_bench () =
  header "Distributed tracing (BENCH_trace.json)";
  let module J = Mcc_obs.Json in
  let module Dtrace = Mcc_obs.Dtrace in
  let module Slo = Mcc_obs.Slo in
  let module Srv = Mcc_serve.Server in
  let module Traffic = Mcc_serve.Traffic in
  let module Farm = Mcc_farm.Farm in
  let spu = Mcc_sched.Costs.seconds_per_unit in
  let sample = sample () <> None in
  let serve_jobs = if sample then 16 else 48 in
  if sample then say "BENCH_SAMPLE: %d serve jobs, reduced cells" serve_jobs;
  (* --- serve cell: validation + deterministic exports ---------------- *)
  let serve_traffic =
    { Traffic.default with Traffic.jobs = serve_jobs; clients = 3; mean_interarrival = 1.0; seed = 11 }
  in
  let serve_cfg = { Srv.default_config with Srv.compile = Driver.default_config } in
  let serve_run ~trace () =
    Srv.serve ~trace ~cache:(Srv.cache ()) serve_cfg (Traffic.generate serve_traffic)
  in
  let r1 = serve_run ~trace:true () in
  let t1 = Dtrace.assemble ~subs:r1.Srv.r_subs r1.Srv.r_events in
  (match Dtrace.validate t1 with
  | Ok () -> ()
  | Error e -> fail "serve cell: span forest does not validate: %s" e);
  let n_roots = List.length (Dtrace.roots t1) in
  if n_roots <> r1.Srv.r_submitted then
    fail "serve cell: %d root spans for %d submitted jobs" n_roots r1.Srv.r_submitted;
  say "serve cell: %d jobs, %d spans, every sojourn exactly tiled (0 gaps/overlaps/orphans)"
    serve_jobs (List.length t1.Dtrace.spans);
  let span_secs =
    List.map (fun s -> Dtrace.duration s *. spu)
      (List.filter (fun s -> s.Dtrace.d_kind = "job") t1.Dtrace.spans)
  in
  let mean, p50, p95, _, maxv = Mcc_util.Quantile.summarize span_secs in
  say "  job-span durations: mean %.2f s, p50 %.2f, p95 %.2f, max %.2f" mean p50 p95 maxv;
  let exports r =
    let t = Dtrace.assemble ~subs:r.Srv.r_subs r.Srv.r_events in
    ( J.to_string (Dtrace.to_otlp ~sec_per_unit:spu t),
      Dtrace.waterfall ~sec_per_unit:spu t,
      Mcc_analysis.Trace_json.export_spans ~sec_per_unit:spu t )
  in
  let o1, w1, c1 = exports r1 in
  let o2, w2, c2 = exports (serve_run ~trace:true ()) in
  if o1 <> o2 then fail "serve cell: same-seed OTLP exports differ";
  if w1 <> w2 then fail "serve cell: same-seed waterfalls differ";
  if c1 <> c2 then fail "serve cell: same-seed Chrome exports differ";
  (match J.validate o1 with
  | Ok () -> ()
  | Error e -> fail "serve cell: OTLP export is not valid JSON: %s" e);
  say "  same-seed OTLP/waterfall/Chrome exports byte-identical across runs: PASS";
  let plain = serve_run ~trace:false () in
  if plain.Srv.r_end_seconds <> r1.Srv.r_end_seconds then
    fail "serve cell: tracing changed the virtual end time (%.6f vs %.6f)"
      plain.Srv.r_end_seconds r1.Srv.r_end_seconds;
  say "  tracing is free: traced and untraced end times identical: PASS";
  (* --- farm cell: critical path tiles the makespan ------------------- *)
  let farm_rank = if sample then 3 else 17 in
  let store = Suite.program farm_rank in
  let farm_cfg = { Farm.default_config with Farm.compile = Driver.default_config } in
  let fr = Farm.run ~trace:true farm_cfg store in
  let ft = Dtrace.assemble ~subs:fr.Farm.f_subs fr.Farm.f_events in
  (match Dtrace.validate ft with
  | Ok () -> ()
  | Error e -> fail "farm cell: span forest does not validate: %s" e);
  let cr = Dtrace.critpath ft in
  let c_end_s = cr.Dtrace.c_end *. spu in
  let eps = 1e-6 *. Float.max 1.0 fr.Farm.f_makespan in
  if Float.abs (c_end_s -. fr.Farm.f_makespan) > eps then
    fail "farm cell: critical path end %.6f s != makespan %.6f s" c_end_s fr.Farm.f_makespan;
  let total_s = Dtrace.crit_total cr *. spu in
  if Float.abs (total_s -. c_end_s) > eps then
    fail "farm cell: bucket totals %.6f s leak from end-to-end %.6f s" total_s c_end_s;
  if cr.Dtrace.c_critical_node < 0 then fail "farm cell: no critical node attributed";
  say "farm cell: suite rank %d, critpath %.3f s tiles makespan %.3f s; critical node node%d%s"
    farm_rank c_end_s fr.Farm.f_makespan cr.Dtrace.c_critical_node
    (if cr.Dtrace.c_critical_rpc = "" then ""
     else Printf.sprintf ", critical rpc %s" cr.Dtrace.c_critical_rpc);
  (* --- flight recorder cell: trips resolve to bundles ---------------- *)
  let hot_traffic =
    {
      Traffic.default with
      Traffic.jobs = (if sample then 18 else 32);
      clients = 3;
      mean_interarrival = 0.02;
      seed = 3;
    }
  in
  let hot_cfg =
    {
      Srv.default_config with
      Srv.compile = Driver.default_config;
      cap = 3;
      deadline = Some 1.0;
      faults = Mcc_sched.Fault.parse_list "task-crash@1";
      fault_seed = 5;
    }
  in
  let hr = Srv.serve ~trace:true ~cache:(Srv.cache ()) hot_cfg (Traffic.generate hot_traffic) in
  let ht = Dtrace.assemble ~subs:hr.Srv.r_subs hr.Srv.r_events in
  (match Dtrace.validate ht with
  | Ok () -> ()
  | Error e -> fail "recorder cell: span forest does not validate: %s" e);
  let slo = hr.Srv.r_slo in
  if Slo.trip_count slo = 0 then fail "recorder cell: overload produced no trips";
  List.iter
    (fun (tr : Slo.trip) ->
      if Dtrace.bundle ht ~trace:tr.Slo.t_trace = [] then
        fail "recorder cell: trip for job #%d (%s) has an empty post-mortem bundle" tr.Slo.t_job
          (Slo.reason_name tr.Slo.t_reason))
    (Slo.trips slo);
  let n_trips = Slo.trip_count slo in
  say "recorder cell: %d trips, every trace id resolves to a non-empty post-mortem bundle"
    n_trips;
  (* --- artifact ------------------------------------------------------ *)
  let bucket_json (b, u) = J.Obj [ ("bucket", J.Str b); ("seconds", J.Float (u *. spu)) ] in
  let doc =
    J.Obj
      [
        ("schema", J.Str "mcc-bench-trace-v1");
        ( "serve",
          J.Obj
            [
              ("jobs", J.Int serve_jobs);
              ("spans", J.Int (List.length t1.Dtrace.spans));
              ("roots", J.Int n_roots);
              ("validated", J.Bool true);
              ("exports_deterministic", J.Bool true);
              ("tracing_free", J.Bool true);
              ( "job_span_seconds",
                J.Obj
                  [
                    ("mean", J.Float mean); ("p50", J.Float p50); ("p95", J.Float p95);
                    ("max", J.Float maxv);
                  ] );
            ] );
        ( "farm",
          J.Obj
            [
              ("suite_rank", J.Int farm_rank);
              ("makespan", J.Float fr.Farm.f_makespan);
              ("critpath_seconds", J.Float c_end_s);
              ("critical_node", J.Int cr.Dtrace.c_critical_node);
              ("critical_rpc", J.Str cr.Dtrace.c_critical_rpc);
              ("buckets", J.Arr (List.map bucket_json cr.Dtrace.c_buckets));
              ("tiles_makespan", J.Bool true);
            ] );
        ( "recorder",
          J.Obj
            [
              ("jobs", J.Int hot_traffic.Traffic.jobs);
              ("trips", J.Int n_trips);
              ("shed", J.Int hr.Srv.r_shed);
              ("deadline_shed", J.Int hr.Srv.r_deadline_shed);
              ("all_bundles_nonempty", J.Bool true);
              ("slo", Slo.to_json slo);
            ] );
      ]
  in
  write_artifact "BENCH_trace.json" doc

(* Workload-zoo benchmark (BENCH_zoo.json).  Four gated sections.
   (1) Corpus: every scenario directory replays clean through its
   manifest-declared oracles, and every loose shrunk reproducer stays
   conformant.  (2) Shapes: the default adversarial zoo — plus the 10k
   extremes (one 10k-line procedure; 10k one-line procedures) in full
   mode — is oracle-clean, and regenerating each shape from the same
   seed yields byte-identical sources.  (3) Scale: the module-count
   mega-suite sweeps counts through build, bounded cache, serve and
   farm in virtual time; every point must hold warm≡cold, the serve
   and farm oracles must verify, and both knees must land inside the
   sweep.  (4) Determinism: a same-seed scale re-run must serialize
   byte-identically (CI additionally re-runs the whole binary and cmps
   the artifact).  BENCH_SAMPLE drops the shape extremes and sweeps
   the reduced counts. *)
let zoo_bench () =
  header "Workload zoo: corpus, adversarial shapes, scaling knees (BENCH_zoo.json)";
  let module J = Mcc_obs.Json in
  let module Zoo = Mcc_zoo.Zoo in
  let module Shapes = Mcc_zoo.Shapes in
  let module Scale = Mcc_zoo.Scale in
  let sample = sample () <> None in
  if sample then say "BENCH_SAMPLE: default shapes only, reduced scale counts";
  let check_clean what (o : Zoo.outcome) =
    List.iter (fun f -> say "  %s" (Zoo.failure_to_string f)) o.Zoo.o_failures;
    if o.Zoo.o_failures <> [] then
      fail "%s %s diverged (%d failure(s))" what o.Zoo.o_scenario (List.length o.Zoo.o_failures);
    say "  %-24s [%s] clean: %s" o.Zoo.o_scenario o.Zoo.o_kind
      (String.concat ", " o.Zoo.o_oracles)
  in
  let outcome_json (o : Zoo.outcome) =
    J.Obj
      [
        ("scenario", J.Str o.Zoo.o_scenario);
        ("kind", J.Str o.Zoo.o_kind);
        ("oracles", J.Arr (List.map (fun s -> J.Str s) o.Zoo.o_oracles));
        ("failures", J.Int (List.length o.Zoo.o_failures));
      ]
  in
  (* --- corpus -------------------------------------------------------- *)
  let corpus_dir =
    match List.find_opt Sys.is_directory [ "corpus"; "../corpus" ] with
    | Some d -> d
    | None -> fail "corpus/ not found from %s" (Sys.getcwd ())
  in
  let corpus =
    List.map
      (fun d -> Zoo.run_dir (Filename.concat corpus_dir d))
      (Zoo.scenario_dirs ~dir:corpus_dir)
    @ Zoo.run_repros ~dir:corpus_dir
  in
  if corpus = [] then fail "corpus/ holds no scenario directories";
  List.iter (check_clean "corpus scenario") corpus;
  say "corpus: %d workload(s) oracle-clean: PASS" (List.length corpus);
  (* --- shapes -------------------------------------------------------- *)
  let spec_of s =
    match Shapes.of_string s with Ok sp -> sp | Error e -> fail "bad shape spec %s: %s" s e
  in
  let extremes =
    if sample then [] else List.map spec_of [ "long-proc:lines=10000"; "many-procs:procs=10000" ]
  in
  let specs = Shapes.default_zoo @ extremes in
  let shapes = List.map (fun sp -> Zoo.run_spec ~seed:0 sp) specs in
  List.iter (check_clean "shape") shapes;
  let fingerprint sp =
    let st = Shapes.generate ~seed:0 sp in
    String.concat "\x00"
      ((Source_store.main_src st
       :: List.filter_map (Source_store.def_src st) (Source_store.def_names st))
      @ List.filter_map (Source_store.impl_src st) (Source_store.impl_names st))
  in
  List.iter
    (fun sp ->
      if fingerprint sp <> fingerprint sp then
        fail "shape %s: same-seed regeneration differs" (Shapes.name sp))
    specs;
  say "shapes: %d generated shape(s) oracle-clean, same-seed regeneration byte-identical%s: PASS"
    (List.length shapes)
    (if sample then "" else " (including the 10k-line and 10k-procedure extremes)");
  (* --- scale --------------------------------------------------------- *)
  let counts = if sample then Scale.sample_counts else Scale.default_counts in
  let sweep () = Scale.run ~seed:0 ~counts ~sample ~log:(fun m -> say "  %s" m) () in
  let r = sweep () in
  List.iter (fun l -> say "%s" l) (Scale.render r);
  List.iter
    (fun (p : Scale.point) ->
      if not p.Scale.p_warm_cold_ok then fail "scale n=%d: warm/cold observations diverge" p.Scale.p_n;
      if not p.Scale.p_farm_ok then fail "scale n=%d: farm run failed" p.Scale.p_n)
    r.Scale.s_points;
  (match r.Scale.s_scheduler_knee with
  | Some _ -> ()
  | None -> fail "scale sweep located no scheduler knee");
  (match r.Scale.s_cache_knee with
  | Some _ -> ()
  | None -> fail "scale sweep located no cache knee");
  if r.Scale.s_serve_verified <= 0 then fail "serve oracle verified no jobs";
  if not r.Scale.s_farm_verified then fail "farm oracle failed at the largest farm count";
  say "scale: warm≡cold at every point, serve and farm oracles verified, both knees found: PASS";
  (* --- determinism --------------------------------------------------- *)
  let render_scale r = J.to_string (Scale.to_json r) in
  if render_scale r <> render_scale (Scale.run ~seed:0 ~counts ~sample ()) then
    fail "same-seed scale sweeps serialize differently — the sweep is nondeterministic";
  say "determinism: same-seed scale sweep re-run is byte-identical: PASS";
  (* --- artifact ------------------------------------------------------ *)
  let doc =
    J.Obj
      [
        ("schema", J.Str "mcc-bench-zoo-v1");
        ("sample", J.Bool sample);
        ("corpus", J.Arr (List.map outcome_json corpus));
        ("shapes", J.Arr (List.map outcome_json shapes));
        ("scale", Scale.to_json r);
        ( "determinism",
          J.Obj [ ("scale_identical", J.Bool true); ("shapes_identical", J.Bool true) ] );
      ]
  in
  write_artifact "BENCH_zoo.json" doc

let experiments =
  [
    ("table1", table1); ("table2", table2); ("table3", table3); ("fig2", fig2);
    ("fig4", fig4); ("fig7", fig7); ("overhead", overhead); ("dky", dky);
    ("heading", heading); ("sched", sched_ablation); ("barrier", barrier);
    ("sensitivity", sensitivity); ("incr", incr); ("incr-fine", incr_fine); ("serve", serve_bench);
    ("farm", farm_bench);
    ("trace", trace_bench);
    ("zoo", zoo_bench);
    ("faults", faults);
    ("micro", micro);
    ("speedup", speedup_artifacts); ("conformance", conformance);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected = if args = [] || args = [ "all" ] then List.map fst experiments else args in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          say "unknown experiment %s; available: %s all" name
            (String.concat " " (List.map fst experiments)))
    selected
