(* The corpus regression runner, now a thin driver over the workload
   zoo: every scenario directory replays through the oracles its
   manifest declares (conformance, warm≡cold, incremental rebuild-set,
   farm, golden program output) on each `dune runtest`, and loose
   `repro*` files (minimized divergence reproducers dropped by `m2c
   check`) replay through the conformance oracle.  A manifest guard
   fails the suite the moment a scenario directory lacks a manifest, so
   new scenarios can never land silently under-tested.  corpus/README.md
   documents the manifest and golden formats. *)

module Zoo = Mcc_zoo.Zoo
module Manifest = Mcc_zoo.Manifest

let corpus_dir = Tutil.corpus_dir

let check_outcome (o : Zoo.outcome) =
  match o.Zoo.o_failures with
  | [] -> ()
  | fs ->
      Alcotest.failf "%s [%s] diverged:\n  %s" o.Zoo.o_scenario o.Zoo.o_kind
        (String.concat "\n  " (List.map Zoo.failure_to_string fs))

(* every scenario must declare its oracles — a new directory without a
   manifest fails here with the recipe, not silently under-tested *)
let manifest_guard () =
  let dir = Lazy.force corpus_dir in
  List.iter
    (fun s ->
      match Manifest.load ~dir:(Filename.concat dir s) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    (Zoo.scenario_dirs ~dir)

let scenario_cases () =
  let dir = Lazy.force corpus_dir in
  let scenarios = Zoo.scenario_dirs ~dir in
  if scenarios = [] then Alcotest.fail "corpus/ holds no scenario directories";
  List.map
    (fun s ->
      Alcotest.test_case s `Quick (fun () ->
          check_outcome (Zoo.run_dir (Filename.concat dir s))))
    scenarios

let () =
  Alcotest.run "corpus"
    [
      ( "manifest guard",
        [ Alcotest.test_case "every scenario declares its oracles" `Quick manifest_guard ] );
      ("scenarios", scenario_cases ());
      ( "repros",
        [
          Alcotest.test_case "saved reproducers" `Quick (fun () ->
              List.iter check_outcome (Zoo.run_repros ~dir:(Lazy.force corpus_dir)));
        ] );
    ]
