(* The workload zoo's own test suite: qcheck properties over the shape
   generator (every generated program parses and elaborates cleanly;
   the same spec+seed regenerates byte-identical sources; the seed
   perturbs constants but never the module set; diamond depth/width are
   honored exactly), the --shape and manifest parsers' error paths, the
   golden-record fixpoint under --update-golden, a toy scaling sweep
   (knees present, deterministic rendering), and the
   repro<item>x<ordinal> filename fix in Check.save. *)

open Mcc_core
module Shapes = Mcc_zoo.Shapes
module Manifest = Mcc_zoo.Manifest
module Golden = Mcc_zoo.Golden
module Zoo = Mcc_zoo.Zoo
module Scale = Mcc_zoo.Scale

(* --- shape generator properties ------------------------------------ *)

let spec_of_int n =
  let open Shapes in
  match n mod 6 with
  | 0 -> Diamond { depth = 2 + (n / 6 mod 4); width = 1 + (n / 24 mod 3) }
  | 1 -> Mutual { pairs = 1 + (n / 6 mod 4) }
  | 2 -> Long_proc { lines = 10 + (n / 6 mod 200) }
  | 3 -> Many_procs { procs = 5 + (n / 6 mod 100) }
  | 4 -> Hot_decl { defs = 2 + (n / 6 mod 30) }
  | _ -> Exc_lock { procs = 1 + (n / 6 mod 5); depth = 1 + (n / 24 mod 5) }

let sources st =
  (Source_store.main_name st, Source_store.main_src st)
  :: (List.map
        (fun d -> (d ^ ".def", Option.get (Source_store.def_src st d)))
        (Source_store.def_names st)
     @ List.map
         (fun i -> (i ^ ".mod", Option.get (Source_store.impl_src st i)))
         (Source_store.impl_names st))

let prop_shapes_elaborate =
  QCheck.Test.make ~name:"generated shapes always parse and elaborate cleanly" ~count:30
    QCheck.(int_bound 100_000)
    (fun n ->
      let spec = spec_of_int n in
      let r = Seq_driver.compile (Shapes.generate ~seed:n spec) in
      if not (r.Seq_driver.ok && r.Seq_driver.diags = []) then
        QCheck.Test.fail_reportf "%s (seed %d): ok=%b, %d diagnostic(s)" (Shapes.to_string spec)
          n r.Seq_driver.ok
          (List.length r.Seq_driver.diags);
      true)

let prop_same_seed_identical =
  QCheck.Test.make ~name:"same spec+seed regenerates byte-identical sources" ~count:30
    QCheck.(int_bound 100_000)
    (fun n ->
      let spec = spec_of_int n in
      sources (Shapes.generate ~seed:n spec) = sources (Shapes.generate ~seed:n spec))

let prop_seed_never_changes_structure =
  QCheck.Test.make ~name:"seed perturbs constants, never the module set" ~count:30
    QCheck.(int_bound 100_000)
    (fun n ->
      let spec = spec_of_int n in
      let names st =
        List.sort compare (Source_store.main_name st :: Source_store.def_names st)
      in
      names (Shapes.generate ~seed:n spec) = Shapes.modules spec
      && names (Shapes.generate ~seed:(n + 1) spec) = Shapes.modules spec)

let prop_diamond_dims =
  QCheck.Test.make ~name:"diamond depth/width honored exactly" ~count:25
    QCheck.(pair (int_range 1 5) (int_range 1 4))
    (fun (depth, width) ->
      let spec = Shapes.Diamond { depth; width } in
      let st = Shapes.generate spec in
      (* one apex, then [width] interfaces per remaining level, plus main *)
      List.length (Source_store.def_names st) = 1 + ((depth - 1) * width)
      && List.sort compare (Source_store.main_name st :: Source_store.def_names st)
         = Shapes.modules spec)

(* --- spec parsing --------------------------------------------------- *)

let expect_err what msg = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e ->
      if not (Tutil.contains ~sub:msg e) then
        Alcotest.failf "%s: error %S does not mention %S" what e msg

let test_spec_parsing () =
  List.iter
    (fun sp ->
      match Shapes.of_string (Shapes.to_string sp) with
      | Ok sp' ->
          Alcotest.(check string)
            (Shapes.to_string sp ^ " round-trips")
            (Shapes.to_string sp) (Shapes.to_string sp')
      | Error e -> Alcotest.failf "%s failed to re-parse: %s" (Shapes.to_string sp) e)
    Shapes.default_zoo;
  (match Shapes.of_string "diamond" with
  | Ok (Shapes.Diamond { depth = 5; width = 3 }) -> ()
  | _ -> Alcotest.fail "bare kind takes the default-zoo parameters");
  (match Shapes.of_string "exc-lock:depth=2" with
  | Ok (Shapes.Exc_lock { procs = 6; depth = 2 }) -> ()
  | _ -> Alcotest.fail "omitted parameters default per kind");
  expect_err "unknown kind" "unknown shape kind \"pyramid\"" (Shapes.of_string "pyramid");
  expect_err "unknown parameter" "unknown parameter \"height\""
    (Shapes.of_string "diamond:height=3");
  expect_err "non-numeric value" "depth=\"zero\"" (Shapes.of_string "diamond:depth=zero");
  expect_err "zero value" "strictly positive" (Shapes.of_string "mutual:pairs=0");
  expect_err "malformed pair" "not of the form key=value" (Shapes.of_string "diamond:depth")

(* --- manifest parsing ----------------------------------------------- *)

let test_manifest_parsing () =
  (match Manifest.parse ~what:"m" "# c\nmain: Foo\noracles: conformance golden\ninput: 1 2\n" with
  | Ok m ->
      Alcotest.(check (option string)) "main" (Some "Foo") m.Manifest.main;
      Alcotest.(check (list int)) "input" [ 1; 2 ] m.Manifest.input;
      Alcotest.(check (list string))
        "oracles" [ "conformance"; "golden" ]
        (List.map Manifest.oracle_to_string m.Manifest.oracles)
  | Error e -> Alcotest.failf "valid manifest failed to parse: %s" e);
  (* render/parse round-trip *)
  (match Manifest.parse ~what:"m" "oracles: farm warm-cold farm\n" with
  | Ok m -> (
      Alcotest.(check (list string))
        "oracles dedup, declaration order" [ "farm"; "warm-cold" ]
        (List.map Manifest.oracle_to_string m.Manifest.oracles);
      match Manifest.parse ~what:"m" (Manifest.render m) with
      | Ok m' -> Alcotest.(check bool) "render round-trips" true (m = m')
      | Error e -> Alcotest.failf "rendered manifest failed to re-parse: %s" e)
  | Error e -> Alcotest.failf "dedup manifest failed to parse: %s" e);
  expect_err "unknown oracle names line" "m:2: unknown oracle \"ghost\""
    (Manifest.parse ~what:"m" "main: X\noracles: ghost\n");
  expect_err "unknown key" "unknown manifest key \"mane\""
    (Manifest.parse ~what:"m" "mane: X\noracles: farm\n");
  expect_err "no oracles key" "declares no oracles" (Manifest.parse ~what:"m" "main: X\n");
  expect_err "empty oracles" "declares no oracle" (Manifest.parse ~what:"m" "oracles:\n");
  expect_err "bad input" "input: \"two\" is not an integer"
    (Manifest.parse ~what:"m" "oracles: farm\ninput: 1 two\n");
  expect_err "keyless line" "expected \"key: value\"" (Manifest.parse ~what:"m" "gibberish\n");
  expect_err "missing file names remedy" "no manifest"
    (Manifest.load ~dir:(Filename.get_temp_dir_name ()))

(* --- golden records ------------------------------------------------- *)

let test_first_line_diff () =
  Alcotest.(check bool) "equal strings: no diff" true
    (Golden.first_line_diff ~expected:"a\nb\n" ~actual:"a\nb\n" = None);
  (match Golden.first_line_diff ~expected:"a\nb\n" ~actual:"a\nc\n" with
  | Some (2, "b", "c") -> ()
  | d ->
      Alcotest.failf "wrong diff: %s"
        (match d with
        | None -> "<none>"
        | Some (n, e, a) -> Printf.sprintf "(%d, %S, %S)" n e a));
  match Golden.first_line_diff ~expected:"a" ~actual:"a\nextra" with
  | Some (2, "<missing>", "extra") -> ()
  | _ -> Alcotest.fail "length mismatch reports <missing>"

(* Copy a corpus scenario into a temp dir, regenerate its goldens twice
   (the records must reach a byte-identical fixpoint immediately), then
   replay clean against them. *)
let temp_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let corpus_dir = Tutil.corpus_dir
let read_file = Tutil.read_file

let test_golden_fixpoint () =
  let src = Filename.concat (Lazy.force corpus_dir) "signature-edit" in
  let dir = temp_dir "mcc-zoo-golden" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Array.iter
        (fun f ->
          let from = Filename.concat src f in
          if not (Sys.is_directory from) then
            Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
                output_string oc (read_file from)))
        (Sys.readdir src);
      let o1 = Zoo.run_dir ~update_golden:true dir in
      Alcotest.(check (list string))
        "update pass is oracle-clean" []
        (List.map Zoo.failure_to_string o1.Zoo.o_failures);
      Alcotest.(check bool) "update pass writes goldens" true (o1.Zoo.o_updated <> []);
      let snapshot () = List.map (fun p -> (p, read_file p)) (List.sort compare o1.Zoo.o_updated) in
      let first = snapshot () in
      let o2 = Zoo.run_dir ~update_golden:true dir in
      Alcotest.(check (list string))
        "second update pass stays clean" []
        (List.map Zoo.failure_to_string o2.Zoo.o_failures);
      Alcotest.(check bool) "goldens are a fixpoint (byte-identical rewrite)" true
        (first = snapshot ());
      Alcotest.(check (list string)) "second update pass rewrites nothing" [] o2.Zoo.o_updated;
      let o3 = Zoo.run_dir dir in
      Alcotest.(check (list string))
        "plain replay against fresh goldens is clean" []
        (List.map Zoo.failure_to_string o3.Zoo.o_failures);
      Alcotest.(check (list string)) "plain replay updates nothing" [] o3.Zoo.o_updated)

(* A missing golden must fail with the remedy, not pass vacuously. *)
let test_missing_golden_fails () =
  let src = Filename.concat (Lazy.force corpus_dir) "import-diamond" in
  let dir = temp_dir "mcc-zoo-nogold" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Array.iter
        (fun f ->
          let from = Filename.concat src f in
          if not (Sys.is_directory from) then
            Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
                output_string oc (read_file from)))
        (Sys.readdir src);
      let o = Zoo.run_dir dir in
      match o.Zoo.o_failures with
      | [ f ] ->
          Alcotest.(check string) "golden oracle flagged it" "golden" f.Zoo.f_oracle;
          Alcotest.(check bool) "remedy names --update-golden" true
            (Tutil.contains ~sub:"--update-golden" f.Zoo.f_expected)
      | fs -> Alcotest.failf "expected exactly the missing-golden failure, got %d" (List.length fs))

(* The main module is auto-detected from real import lists: one that
   continues onto a second line still imports its second module, and a
   comment line starting with IMPORT imports nothing. *)
let test_main_detected_across_lines () =
  let dir = temp_dir "mcc-zoo-main" in
  let files =
    [
      ("manifest", "oracles: conformance\n");
      ("App.mod", "MODULE App;\nIMPORT A,\n  B;\nBEGIN\n  WriteInt(A.k + B.k)\nEND App.\n");
      ("A.def", "DEFINITION MODULE A;\nCONST k = 1;\nEND A.\n");
      ( "A.mod",
        "IMPLEMENTATION MODULE A;\n(* A must not\nIMPORT App; that would be a cycle *)\nEND A.\n" );
      ("B.def", "DEFINITION MODULE B;\nCONST k = 2;\nEND B.\n");
      ("B.mod", "IMPLEMENTATION MODULE B;\nEND B.\n");
    ]
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      List.iter
        (fun (f, text) ->
          Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc text))
        files;
      let o = Zoo.run_dir dir in
      Alcotest.(check (list string)) "App detected as main, conformant" []
        (List.map Zoo.failure_to_string o.Zoo.o_failures))

(* --- generated-shape outcomes --------------------------------------- *)

let test_default_zoo_clean () =
  List.iter
    (fun sp ->
      let o = Zoo.run_spec sp in
      match o.Zoo.o_failures with
      | [] -> ()
      | fs ->
          Alcotest.failf "%s diverged: %s" o.Zoo.o_scenario
            (String.concat "; " (List.map Zoo.failure_to_string fs)))
    [ List.hd Shapes.default_zoo; Shapes.Exc_lock { procs = 2; depth = 2 } ]

(* --- the scaling sweep at toy counts --------------------------------- *)

let test_scale_smoke () =
  let counts = [ 30; 60; 120 ] in
  let r = Scale.run ~counts ~sample:true () in
  Alcotest.(check int) "one point per count" (List.length counts) (List.length r.Scale.s_points);
  List.iter
    (fun (p : Scale.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "warm≡cold at n=%d" p.Scale.p_n)
        true p.Scale.p_warm_cold_ok)
    r.Scale.s_points;
  Alcotest.(check bool) "scheduler knee present" true (r.Scale.s_scheduler_knee <> None);
  Alcotest.(check bool) "cache knee present" true (r.Scale.s_cache_knee <> None);
  Alcotest.(check bool) "cache knee strictly inside the sweep" true
    (match r.Scale.s_cache_knee with Some n -> List.mem n counts | None -> false);
  Alcotest.(check bool) "serve oracle verified jobs" true (r.Scale.s_serve_verified > 0);
  Alcotest.(check bool) "farm oracle verified" true r.Scale.s_farm_verified;
  (* deterministic: same seed, same counts, byte-identical JSON *)
  let render r = Mcc_obs.Json.to_string (Scale.to_json r) in
  Alcotest.(check string) "same-seed sweep serializes identically" (render r)
    (render (Scale.run ~counts ~sample:true ()))

(* --- Check.save: one file per divergence, even within one item ------- *)

let test_check_save_distinct_files () =
  let module C = Mcc_check.Check in
  let d ordinal =
    {
      C.item = 3;
      ordinal;
      program = "gen:0#1";
      cell = "cell";
      field = "f";
      expected = "a";
      actual = "b";
      replay = "m2c check --budget 4 --seed 0";
      shrunk = Some (100, 40, 7);
      reproducer =
        [
          ("M00.def", "DEFINITION MODULE M00;\nCONST k = 1;\nEND M00.\n");
          ("Q.mod", "IMPLEMENTATION MODULE Q;\nBEGIN\nEND Q.\n");
        ];
    }
  in
  let r =
    {
      C.r_config = C.default_config;
      checks_run = 4;
      oracle_checks = 3;
      morph_checks = 1;
      programs = 1;
      (* two divergences from the SAME queue item with the SAME module
         names — the pre-ordinal naming scheme overwrote one with the
         other *)
      divergences = [ d 0; d 1 ];
      planted_detected = false;
    }
  in
  let dir = temp_dir "mcc-zoo-save" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (match C.save ~dir r with
      | Ok path -> Alcotest.(check bool) "report path is inside dir" true (Filename.dirname path = dir)
      | Error e -> Alcotest.failf "save failed: %s" e);
      let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
      Alcotest.(check (list string))
        "both divergences keep all their reproducer files"
        [
          "report.json"; "repro3x0-M00.def"; "repro3x0-Q.mod"; "repro3x1-M00.def"; "repro3x1-Q.mod";
        ]
        files;
      (* the zoo runner ingests the saved group names *)
      let outs = Zoo.run_repros ~dir in
      Alcotest.(check (list string))
        "run_repros sees one group per divergence" [ "repro3x0"; "repro3x1" ]
        (List.map (fun (o : Zoo.outcome) -> o.Zoo.o_scenario) outs))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "zoo"
    [
      ( "shapes",
        [
          Tutil.qtest prop_shapes_elaborate;
          Tutil.qtest prop_same_seed_identical;
          Tutil.qtest prop_seed_never_changes_structure;
          Tutil.qtest prop_diamond_dims;
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "default zoo shapes replay clean" `Quick test_default_zoo_clean;
        ] );
      ( "manifest",
        [ Alcotest.test_case "parsing and error paths" `Quick test_manifest_parsing ] );
      ( "golden",
        [
          Alcotest.test_case "first-line diff" `Quick test_first_line_diff;
          Alcotest.test_case "update-golden reaches a fixpoint" `Quick test_golden_fixpoint;
          Alcotest.test_case "missing golden fails with remedy" `Quick test_missing_golden_fails;
          Alcotest.test_case "main detected across a multi-line import list" `Quick
            test_main_detected_across_lines;
        ] );
      ("scale", [ Alcotest.test_case "toy sweep: knees, oracles, determinism" `Quick test_scale_smoke ]);
      ( "check-save",
        [
          Alcotest.test_case "same-item divergences save distinct reproducers" `Quick
            test_check_save_distinct_files;
        ] );
    ]
