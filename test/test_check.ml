(* The differential conformance harness: oracle, metamorphic morphs,
   shrinker, planted-bug canary, and report determinism. *)

open Mcc_check
module Gen = Mcc_synth.Gen
module Prng = Mcc_util.Prng

let small_shape =
  {
    Gen.seed = 7;
    name = "CK";
    n_defs = 2;
    depth = 2;
    n_procs = 3;
    nested_per_proc = 1;
    stmts_lo = 1;
    stmts_hi = 5;
    module_vars = 2;
    def_size = 2;
    pad = 16;
    runnable = true;
  }

let small_store () = Gen.generate small_shape

(* ------------------------------------------------------------------ *)
(* Oracle *)

let test_oracle_clean_matrix () =
  let store = small_store () in
  let ds = Oracle.check ~run:true store Oracle.default_matrix in
  Alcotest.(check int)
    ("conformant: " ^ String.concat "; " (List.map Oracle.divergence_to_string ds))
    0 (List.length ds)

let test_oracle_axes () =
  (* Perturbation, warm cache and transient faults must not change the
     observation either. *)
  let store = small_store () in
  let reference = Oracle.reference ~run:true store in
  let base = Oracle.cell Mcc_sem.Symtab.Skeptical 4 in
  let cells =
    [
      { base with Oracle.perturb = Some 11 };
      { base with Oracle.cache = Oracle.Warm };
      { base with Oracle.faults = "task-crash@1"; fault_seed = 3 };
      { base with Oracle.cache = Oracle.Warm; faults = "corrupt-artifact@1"; fault_seed = 5 };
    ]
  in
  List.iter
    (fun cell ->
      match Oracle.run_cell ~run:true ~reference store cell with
      | None -> ()
      | Some d -> Alcotest.fail (Oracle.divergence_to_string d))
    cells

let test_oracle_detects_difference () =
  (* Sanity: the comparison is not vacuous — observations of two
     different programs differ. *)
  let a = Oracle.reference ~run:false (small_store ()) in
  let b =
    Oracle.reference ~run:false (Gen.generate { small_shape with Gen.seed = 8; n_procs = 2 })
  in
  Alcotest.(check bool) "different programs differ" true
    (Observation.first_diff ~reference:a b <> None)

(* ------------------------------------------------------------------ *)
(* Planted-bug canary *)

let planted_cell =
  { (Oracle.cell Mcc_sem.Symtab.Skeptical 4) with Oracle.cache = Oracle.Warm }

let test_canary_detected () =
  let store = small_store () in
  let plant = Oracle.plant_for store in
  Alcotest.(check bool) "program has an interface to tamper" true (plant <> None);
  let ds = Oracle.check ?plant ~run:true store [ planted_cell ] in
  Alcotest.(check bool) "tampered cache diverges" true (ds <> []);
  let d = List.hd ds in
  Alcotest.(check string) "diverges on diagnostics" "diags" d.Oracle.d_field

let test_canary_heals_with_verification () =
  (* The same tamper with verification left on must NOT diverge: the
     probe rejects the corrupt artifact and rebuilds from source. *)
  let store = small_store () in
  let reference = Oracle.reference ~run:true store in
  let cache = Mcc_core.Build_cache.create () in
  let config =
    { Mcc_core.Driver.default_config with Mcc_core.Driver.strategy = Mcc_sem.Symtab.Skeptical }
  in
  ignore (Tutil.compile_cached ~config cache store);
  (match Oracle.plant_for store with
  | Some (Oracle.Tamper_cache name) -> Mcc_core.Build_cache.tamper cache ~name
  | None -> Alcotest.fail "no interface to tamper");
  let obs =
    Observation.of_driver ~run:true (Tutil.compile_cached ~config cache store)
  in
  (match Observation.first_diff ~reference obs with
  | None -> ()
  | Some (f, e, a) -> Alcotest.failf "verification failed to heal: %s (%s vs %s)" f e a);
  Alcotest.(check bool) "the probe dropped the corrupt artifact" true
    (Mcc_core.Build_cache.corrupt_count cache >= 1)

let test_canary_shrinks () =
  let store = small_store () in
  let predicate s =
    match Oracle.plant_for s with
    | None -> false
    | Some _ as plant -> Oracle.check ?plant ~run:false s [ planted_cell ] <> []
  in
  Alcotest.(check bool) "input reproduces" true (predicate store);
  let r = Shrink.run ~shape:small_shape ~predicate store in
  Alcotest.(check bool) "minimized still reproduces" true (predicate r.Shrink.store);
  Alcotest.(check bool)
    (Printf.sprintf "reduced to <= 25%% (%d -> %d bytes in %d steps)" r.Shrink.orig_bytes
       r.Shrink.min_bytes r.Shrink.steps)
    true
    (r.Shrink.min_bytes * 4 <= r.Shrink.orig_bytes)

(* ------------------------------------------------------------------ *)
(* Metamorphic layer *)

let all_sources store =
  Mcc_core.Source_store.main_src store
  ^ String.concat ""
      (List.filter_map
         (Mcc_core.Source_store.def_src store)
         (Mcc_core.Source_store.def_names store))

let morph_case t () =
  let store = small_store () in
  let reference = Oracle.reference ~run:true store in
  let transformed = Morph.apply ~seed:5 t store in
  let t_obs = Oracle.reference ~run:true transformed in
  (match Morph.compare_obs t ~reference t_obs with
  | None -> ()
  | Some (f, e, a) -> Alcotest.failf "%s violates its relation: %s (%s vs %s)" (Morph.name t) f e a);
  (* The transformed program must itself pass the oracle. *)
  match
    Oracle.run_cell ~run:true ~reference:t_obs transformed
      (Oracle.cell Mcc_sem.Symtab.Optimistic 2)
  with
  | None -> ()
  | Some d -> Alcotest.failf "%s broke conformance: %s" (Morph.name t) (Oracle.divergence_to_string d)

let test_morphs_change_source () =
  (* Every transform rewrites the program for some seed (a shuffle can
     be the identity for one seed, so search a few). *)
  let store = small_store () in
  let orig = all_sources store in
  List.iter
    (fun t ->
      let changes seed = all_sources (Morph.apply ~seed t store) <> orig in
      Alcotest.(check bool)
        (Morph.name t ^ " changes the source for some seed")
        true
        (List.exists changes [ 0; 1; 2; 3; 4; 5; 6; 7 ]))
    Morph.all

let test_rename_changes_names () =
  let store = small_store () in
  let transformed = Morph.apply ~seed:0 Morph.Rename store in
  let src = Mcc_core.Source_store.main_src transformed in
  Alcotest.(check bool) "renamed identifiers appear" true
    (let rec has i =
       i + 2 <= String.length src
       && ((src.[i] = '_' && src.[i + 1] = 'r') || has (i + 1))
     in
     has 0);
  Alcotest.(check string) "module name preserved"
    (Mcc_core.Source_store.main_name store)
    (Mcc_core.Source_store.main_name transformed)

(* ------------------------------------------------------------------ *)
(* Shrinker mechanics *)

let test_shape_phase_converges () =
  (* Predicate only needs one procedure to hold: the shape phase must
     drive every budget to its floor. *)
  let predicate s = List.length (Mcc_core.Source_store.def_names s) >= 0 in
  let reduced, steps = Shrink.shrink_shape ~predicate small_shape in
  Alcotest.(check int) "defs dropped" 0 reduced.Gen.n_defs;
  Alcotest.(check int) "procs reduced to 1" 1 reduced.Gen.n_procs;
  Alcotest.(check int) "pad dropped" 0 reduced.Gen.pad;
  Alcotest.(check bool) "fixpoint costs bounded steps" true (steps <= 200)

let test_shrink_deterministic () =
  let store = small_store () in
  let predicate s =
    match Oracle.plant_for s with
    | None -> false
    | Some _ as plant -> Oracle.check ?plant ~run:false s [ planted_cell ] <> []
  in
  let a = Shrink.run ~shape:small_shape ~predicate store in
  let b = Shrink.run ~shape:small_shape ~predicate store in
  Alcotest.(check string) "same minimized main source"
    (Mcc_core.Source_store.main_src a.Shrink.store)
    (Mcc_core.Source_store.main_src b.Shrink.store);
  Alcotest.(check int) "same step count" a.Shrink.steps b.Shrink.steps

let test_ddmin_respects_predicate () =
  (* A predicate pinning one marker line: ddmin converges onto it. *)
  let marker = "VAR keep : INTEGER;" in
  let src =
    Tutil.modsrc ~name:"DD" ~decls:(marker ^ "\nVAR a : INTEGER;\nVAR b : INTEGER;")
      ~body:"keep := 1;" ()
  in
  let store = Tutil.store ~name:"DD" src in
  let predicate s = Tutil.contains ~sub:marker (Mcc_core.Source_store.main_src s) in
  let minimized, _ = Shrink.shrink_store ~predicate store in
  let out = Mcc_core.Source_store.main_src minimized in
  Alcotest.(check bool) "marker survives" true (Tutil.contains ~sub:marker out);
  Alcotest.(check bool) "other declarations dropped" true
    (not (Tutil.contains ~sub:"VAR a : INTEGER;" out))

(* ------------------------------------------------------------------ *)
(* The harness driver *)

let quick_config =
  {
    Check.default_config with
    Check.budget = 12;
    seed = 42;
    strategies = [ Mcc_sem.Symtab.Skeptical; Mcc_sem.Symtab.Optimistic ];
    procs = [ 1; 4 ];
  }

let test_check_run_clean () =
  let r = Check.run quick_config in
  Alcotest.(check bool)
    (String.concat "; "
       (List.map (fun d -> d.Check.field ^ "@" ^ d.Check.cell) r.Check.divergences))
    true (Check.ok r);
  Alcotest.(check int) "all items ran" 12 r.Check.checks_run;
  Alcotest.(check bool) "both kinds ran" true
    (r.Check.oracle_checks > 0 && r.Check.morph_checks > 0)

let test_check_run_planted () =
  let r = Check.run { quick_config with Check.budget = 6; plant = true } in
  Alcotest.(check bool) "canary detected" true r.Check.planted_detected;
  Alcotest.(check bool) "report ok under plant" true (Check.ok r);
  let d = List.hd r.Check.divergences in
  Alcotest.(check bool) "shrunk reproducer attached" true
    (d.Check.shrunk <> None && d.Check.reproducer <> []);
  match d.Check.shrunk with
  | Some (orig, mini, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to <= 25%% (%d -> %d)" orig mini)
        true (mini * 4 <= orig)
  | None -> ()

let test_report_deterministic () =
  let a = Check.report_to_json (Check.run quick_config) in
  let b = Check.report_to_json (Check.run quick_config) in
  Alcotest.(check string) "byte-identical reports" a b;
  match Mcc_obs.Json.validate a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "report is not valid JSON: %s" e

let () =
  Alcotest.run "check"
    [
      ( "oracle",
        [
          Alcotest.test_case "clean matrix" `Slow test_oracle_clean_matrix;
          Alcotest.test_case "axes" `Quick test_oracle_axes;
          Alcotest.test_case "detects difference" `Quick test_oracle_detects_difference;
        ] );
      ( "canary",
        [
          Alcotest.test_case "detected" `Quick test_canary_detected;
          Alcotest.test_case "heals with verification" `Quick test_canary_heals_with_verification;
          Alcotest.test_case "shrinks" `Slow test_canary_shrinks;
        ] );
      ( "morph",
        List.map
          (fun t -> Alcotest.test_case (Morph.name t) `Quick (morph_case t))
          Morph.all
        @ [
            Alcotest.test_case "morphs change source" `Quick test_morphs_change_source;
            Alcotest.test_case "rename changes names" `Quick test_rename_changes_names;
          ] );
      ( "shrink",
        [
          Alcotest.test_case "shape phase converges" `Quick test_shape_phase_converges;
          Alcotest.test_case "deterministic" `Slow test_shrink_deterministic;
          Alcotest.test_case "ddmin respects predicate" `Quick test_ddmin_respects_predicate;
        ] );
      ( "harness",
        [
          Alcotest.test_case "clean run" `Slow test_check_run_clean;
          Alcotest.test_case "planted run" `Slow test_check_run_planted;
          Alcotest.test_case "deterministic report" `Slow test_report_deterministic;
        ] );
    ]
