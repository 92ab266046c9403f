(* Tests for the synthetic program generator and the evaluation suite. *)

open Mcc_core
open Mcc_synth

let test_generation_deterministic () =
  let shape = List.nth Suite.shapes 4 in
  let a = Gen.generate shape and b = Gen.generate shape in
  Alcotest.(check string) "same main source" (Source_store.main_src a) (Source_store.main_src b);
  Alcotest.(check (list string)) "same interfaces" (Source_store.def_names a)
    (Source_store.def_names b)

let test_different_seeds_differ () =
  let shape = List.nth Suite.shapes 4 in
  let a = Gen.generate shape in
  let b = Gen.generate { shape with Gen.seed = shape.Gen.seed + 1 } in
  Alcotest.(check bool) "sources differ" false
    (String.equal (Source_store.main_src a) (Source_store.main_src b))

let test_whole_suite_compiles () =
  List.iteri
    (fun i store ->
      let seq = Seq_driver.compile store in
      if not seq.Seq_driver.ok then
        Alcotest.failf "suite program %d has errors:\n%s" i
          (String.concat "\n"
             (List.map Mcc_m2.Diag.to_string seq.Seq_driver.diags)))
    (Suite.all ())

let test_suite_size () = Alcotest.(check int) "37 programs" 37 Suite.n_programs

let test_suite_attribute_ranges () =
  (* the suite must stay within the paper's Table 1 envelope (loosely) *)
  List.iter
    (fun store ->
      let c = Driver.compile ~config:{ Driver.default_config with Driver.procs = 1 } store in
      Alcotest.(check bool) "compiles" true c.Driver.ok;
      let interfaces, depth = Mcc_stats.Imports.analyze store in
      if interfaces < 1 || interfaces > 140 then Alcotest.failf "interfaces out of range: %d" interfaces;
      if depth < 1 || depth > 12 then Alcotest.failf "depth out of range: %d" depth;
      if c.Driver.n_proc_streams < 2 || c.Driver.n_proc_streams > 300 then
        Alcotest.failf "procedures out of range: %d" c.Driver.n_proc_streams)
    [ Suite.program 0; Suite.program 18; Suite.program 36 ]

let test_synth_best_properties () =
  let store = Suite.synth_best () in
  let c = Driver.compile ~config:Driver.default_config store in
  Alcotest.(check bool) "compiles" true c.Driver.ok;
  Alcotest.(check int) "no imports" 0 c.Driver.n_def_streams;
  Alcotest.(check int) "never incurs a DKY blockage" 0
    (Mcc_sem.Lookup_stats.dky_blocks c.Driver.stats)

let test_runnable_terminates () =
  let shape =
    {
      Gen.seed = 99;
      name = "RT";
      n_defs = 0;
      depth = 1;
      n_procs = 6;
      nested_per_proc = 1;
      stmts_lo = 8;
      stmts_hi = 20;
      module_vars = 4;
      def_size = 1;
      pad = 0;
      runnable = true;
    }
  in
  let store = Gen.generate shape in
  let seq = Seq_driver.compile store in
  Alcotest.(check bool) "compiles" true seq.Seq_driver.ok;
  let r = Mcc_vm.Vm.run seq.Seq_driver.program in
  Alcotest.(check bool) "finishes" true (r.Mcc_vm.Vm.status = Mcc_vm.Vm.Finished);
  Alcotest.(check bool) "produced output" true (String.length r.Mcc_vm.Vm.output > 0)

let test_pad_grows_size_not_work () =
  let base = { (List.nth Suite.shapes 2) with Gen.pad = 0; name = "PA" } in
  let padded = { base with Gen.pad = 3000; name = "PA" } in
  let a = Gen.generate base and b = Gen.generate padded in
  let wa = (Seq_driver.compile a).Seq_driver.cost_units in
  let wb = (Seq_driver.compile b).Seq_driver.cost_units in
  let sa = String.length (Source_store.main_src a) in
  let sb = String.length (Source_store.main_src b) in
  Alcotest.(check bool) "padding grows bytes" true (sb > sa + 1000);
  Alcotest.(check bool) "padding grows work sublinearly" true
    (wb /. wa < float_of_int sb /. float_of_int sa)

(* generate -> parse -> pretty-print -> re-lex/re-parse is a fixpoint:
   the reparsed tree is structurally identical and prints to the same
   text, across 10 seeded shapes. *)
let test_pretty_fixpoint () =
  for seed = 1 to 10 do
    let shape =
      {
        Gen.seed;
        name = "FX";
        n_defs = 2;
        depth = 1;
        n_procs = 3;
        nested_per_proc = 1;
        stmts_lo = 3;
        stmts_hi = 10;
        module_vars = 2;
        def_size = 1;
        pad = 0;
        runnable = (seed mod 2 = 0);
      }
    in
    let store = Gen.generate shape in
    let bodies = Tutil.bodies_of store in
    if bodies = [] then Alcotest.failf "seed %d captured no bodies" seed;
    List.iter
      (fun body ->
        let text = Mcc_ast.Pretty.print_body body in
        let reparsed, diags = Tutil.parse_stmts text in
        if diags <> [] then
          Alcotest.failf "seed %d: reparse produced diagnostics:\n%s\nfor:\n%s" seed
            (String.concat "\n" (List.map Mcc_m2.Diag.to_string diags))
            text;
        if not (Mcc_ast.Ast.equal_body body reparsed) then
          Alcotest.failf "seed %d: reparsed tree differs for:\n%s" seed text;
        Alcotest.(check string)
          (Printf.sprintf "seed %d: printed form is a fixpoint" seed)
          text
          (Mcc_ast.Pretty.print_body reparsed))
      bodies
  done

(* ------------------------------------------------------------------ *)
(* Shape mutations (the conformance shrinker's reduction moves) *)

let big_shape =
  {
    Gen.seed = 3;
    name = "MU";
    n_defs = 4;
    depth = 3;
    n_procs = 6;
    nested_per_proc = 2;
    stmts_lo = 4;
    stmts_hi = 12;
    module_vars = 4;
    def_size = 3;
    pad = 200;
    runnable = false;
  }

let test_mutations_reduce () =
  (* Each mutation strictly reduces some size field on a big shape, and
     the result still generates a compiling program. *)
  List.iter
    (fun m ->
      let s = Gen.mutate big_shape m in
      if s = big_shape then
        Alcotest.failf "%s made no progress on a big shape" (Gen.mutation_name m);
      let seq = Seq_driver.compile (Gen.generate s) in
      if not seq.Seq_driver.ok then
        Alcotest.failf "%s produced a non-compiling shape:\n%s" (Gen.mutation_name m)
          (String.concat "\n" (List.map Mcc_m2.Diag.to_string seq.Seq_driver.diags)))
    Gen.mutations

let test_mutations_reach_floor () =
  (* Iterating every mutation reaches a fixpoint where all return the
     shape unchanged — the shrinker's termination guarantee. *)
  let cur = ref big_shape in
  let budget = ref 100 in
  let progress = ref true in
  while !progress && !budget > 0 do
    progress := false;
    List.iter
      (fun m ->
        decr budget;
        let s = Gen.mutate !cur m in
        if s <> !cur then begin
          cur := s;
          progress := true
        end)
      Gen.mutations
  done;
  Alcotest.(check bool) "reached a fixpoint within budget" true (!budget > 0);
  Alcotest.(check int) "defs at floor" 0 !cur.Gen.n_defs;
  Alcotest.(check int) "procs at floor" 1 !cur.Gen.n_procs;
  Alcotest.(check int) "pad at floor" 0 !cur.Gen.pad;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Gen.mutation_name m ^ " is identity at the floor")
        true
        (Gen.mutate !cur m = !cur))
    Gen.mutations

(* ------------------------------------------------------------------ *)
(* Synthesis golden: digests of every source the synthesis path makes.
   One line per store: its label, counts and one digest over every
   source's kind, name and text digest (interfaces, then
   implementations, each sorted by name); an edit's line also carries
   its class, target and slice.  Covered: [Suite.all] at seeds 0 and 3,
   [with_impls] of each program and its 12-edit stream (seeded as the
   project-edit benchmark seeds them), and the project-scale inputs
   ([Scale.flat_store ~seed:3 3000] through [with_impls], and its 6-edit
   stream).  On a mismatch the lines this build observed are written to
   synth_digests.actual in the test's working directory. *)

let store_digest s =
  let b = Buffer.create 4096 in
  let add kind name text =
    Buffer.add_string b kind;
    Buffer.add_char b ' ';
    Buffer.add_string b name;
    Buffer.add_char b ' ';
    Buffer.add_string b (Digest.to_hex (Digest.string text));
    Buffer.add_char b '\n'
  in
  List.iter
    (fun n -> add "def" n (Option.get (Source_store.def_src s n)))
    (Source_store.def_names s);
  List.iter
    (fun n -> add "mod" n (Option.get (Source_store.impl_src s n)))
    (Source_store.impl_names s);
  Printf.sprintf "main=%s defs=%d mods=%d %s" (Source_store.main_name s)
    (List.length (Source_store.def_names s))
    (List.length (Source_store.impl_names s))
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let edit_line label k (e : Gen.edit) =
  Printf.sprintf "%s edit %d %s %s %s %s" label k (Gen.class_name e.Gen.e_class) e.Gen.e_target
    (Option.value ~default:"-" e.Gen.e_slice)
    (store_digest e.Gen.e_store)

let synth_lines () =
  let project label ~seed ~n base =
    (label ^ " impls " ^ store_digest (Gen.with_impls base))
    :: List.mapi (edit_line label) (Gen.edit_stream ~seed ~n base)
  in
  let suite seed =
    List.concat
      (List.mapi
         (fun rank s ->
           let label = Printf.sprintf "seed %d rank %d" seed rank in
           (label ^ " base " ^ store_digest s)
           :: project label ~seed:((seed * 1009) + rank) ~n:12 s)
         (Suite.all ~seed ()))
  in
  let scale =
    let base = Gen.with_impls (Mcc_zoo.Scale.flat_store ~seed:3 3000) in
    ("scale 3000 base " ^ store_digest base)
    :: List.mapi (edit_line "scale 3000") (Gen.edit_stream ~seed:3 ~n:6 base)
  in
  suite 0 @ suite 3 @ scale

let test_synth_golden () =
  let actual = synth_lines () in
  let expected =
    List.filter (( <> ) "")
      (String.split_on_char '\n' (Tutil.read_file (Tutil.repo_path "test/synth_digests.expected")))
  in
  if actual <> expected then begin
    Out_channel.with_open_bin "synth_digests.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first n = function
      | e :: es, a :: as_ ->
          if e = a then first (n + 1) (es, as_)
          else Alcotest.failf "line %d:\n  expected %s\n  got      %s" n e a
      | e :: _, [] -> Alcotest.failf "line %d: expected %s, got nothing" n e
      | [], a :: _ -> Alcotest.failf "line %d: unexpected %s" n a
      | [], [] -> ()
    in
    first 1 (expected, actual)
  end

(* Every source of a store, keyed by kind and name. *)
let sources s =
  List.map (fun n -> (("def", n), Option.get (Source_store.def_src s n))) (Source_store.def_names s)
  @ List.map (fun n -> (("mod", n), Option.get (Source_store.impl_src s n))) (Source_store.impl_names s)

(* [with_impls] is idempotent, and each edit's store differs from the
   store before it (the first from [with_impls] of the input) only in
   the text of the edit's target: the same sources by kind and name,
   equal except one or both of [e_target]'s, at least one of which
   changed. *)
let check_stream base edits =
  let impls = Gen.with_impls base in
  if sources (Gen.with_impls impls) <> sources impls then
    Alcotest.failf "with_impls is not idempotent on %s" (Source_store.main_name base);
  ignore
    (List.fold_left
       (fun (k, prev) (e : Gen.edit) ->
         let a = sources prev and b = sources e.Gen.e_store in
         if List.map fst a <> List.map fst b then
           Alcotest.failf "edit %d (%s) changed the set of sources" k e.Gen.e_target;
         let changed =
           List.filter_map (fun ((key, x), (_, y)) -> if x = y then None else Some key) (List.combine a b)
         in
         if changed = [] then Alcotest.failf "edit %d (%s) changed nothing" k e.Gen.e_target;
         List.iter
           (fun (kind, n) ->
             if n <> e.Gen.e_target then
               Alcotest.failf "edit %d targets %s but changed %s %s" k e.Gen.e_target kind n)
           changed;
         (k + 1, e.Gen.e_store))
       (0, impls) edits)

let test_edits_touch_only_target () =
  List.iteri
    (fun rank s -> check_stream s (Gen.edit_stream ~seed:rank ~n:12 s))
    (Suite.all ~seed:3 ())

let prop_edits_touch_only_target =
  QCheck.Test.make ~count:40 ~name:"edits touch only their target"
    QCheck.(triple (int_bound 10_000) (int_bound 6) (int_bound 3))
    (fun (seed, n_defs, depth) ->
      let shape =
        {
          Gen.seed;
          name = "ED";
          n_defs;
          depth = depth + 1;
          n_procs = 2;
          nested_per_proc = 1;
          stmts_lo = 2;
          stmts_hi = 6;
          module_vars = 2;
          def_size = 1;
          pad = 0;
          runnable = seed mod 2 = 0;
        }
      in
      let s = Gen.generate shape in
      check_stream s (Gen.edit_stream ~seed ~n:8 s);
      true)

let () =
  Alcotest.run "synth"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "seed-sensitive" `Quick test_different_seeds_differ;
          Alcotest.test_case "runnable terminates" `Quick test_runnable_terminates;
          Alcotest.test_case "comment padding" `Quick test_pad_grows_size_not_work;
          Alcotest.test_case "pretty fixpoint" `Slow test_pretty_fixpoint;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "reduce" `Quick test_mutations_reduce;
          Alcotest.test_case "reach floor" `Quick test_mutations_reach_floor;
        ] );
      ( "suite",
        [
          Alcotest.test_case "size" `Quick test_suite_size;
          Alcotest.test_case "whole suite compiles" `Slow test_whole_suite_compiles;
          Alcotest.test_case "attribute ranges" `Quick test_suite_attribute_ranges;
          Alcotest.test_case "Synth.mod best case" `Quick test_synth_best_properties;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "synthesis golden" `Quick test_synth_golden;
          Alcotest.test_case "edits touch only their target" `Quick test_edits_touch_only_target;
          QCheck_alcotest.to_alcotest prop_edits_touch_only_target;
        ] );
    ]
