(* Fine-grained (declaration-level) incremental recompilation.

   The invalidation unit is the interface *slice* — one exported
   declaration.  The properties under test: a body-only edit rebuilds
   exactly the edited module; interface text edits that change no
   declaration rebuild nothing (early cutoff); a signature edit rebuilds
   only the modules that actually used the edited slice; negative
   dependencies (a name probed and not found) invalidate when the name
   appears; and warm fine-grained builds over a seeded edit stream stay
   observation-equivalent to cold builds. *)

open Tutil
open Mcc_core
module Gen = Mcc_synth.Gen

(* A three-module project with distinguishable slice usage:
   Main uses Lib.base (+ Aux.step); Aux uses only Lib.limit. *)
let lib_def ?(base = 10) ?(limit = 5) ?(comment = "") ?(extra = "") () =
  Printf.sprintf
    "DEFINITION MODULE Lib;\nCONST base = %d;\nCONST limit = %d;\n%s%sEND Lib.\n" base limit
    extra
    (if comment = "" then "" else "(* " ^ comment ^ " *)\n")

let aux_def = "DEFINITION MODULE Aux;\nCONST step = 2;\nPROCEDURE Walk(): INTEGER;\nEND Aux.\n"

let aux_impl ?(delta = 1) () =
  Printf.sprintf
    "IMPLEMENTATION MODULE Aux;\nIMPORT Lib;\nPROCEDURE Walk(): INTEGER;\nBEGIN RETURN Lib.limit + %d\nEND Walk;\nEND Aux.\n"
    delta

let main_src = "IMPLEMENTATION MODULE Main;\nIMPORT Lib;\nIMPORT Aux;\nVAR a: INTEGER;\nBEGIN\n  a := Lib.base + Aux.step + Aux.Walk();\n  WriteInt(a)\nEND Main.\n"

let project ?base ?limit ?comment ?extra ?delta () =
  store ~name:"Main"
    ~defs:[ ("Lib", lib_def ?base ?limit ?comment ?extra ()); ("Aux", aux_def) ]
    ~impls:[ ("Aux", aux_impl ?delta ()) ]
    main_src

let build cache ?fine s = Project.compile ?fine ~cache s

let test_body_only_rebuilds_one () =
  let cache = Project.cache () in
  ignore (build cache (project ()));
  let r = build cache (project ~delta:7 ()) in
  Alcotest.(check (list string)) "only Aux recompiles" [ "Aux" ] r.Project.recompiled;
  Alcotest.(check (list string)) "Main reused" [ "Main" ] r.Project.reused;
  (* no interface text moved, so invalidation had nothing to stop *)
  Alcotest.(check (list string)) "no cutoffs" [] r.Project.cutoffs

let test_sig_preserving_rebuilds_nothing () =
  let cache = Project.cache () in
  ignore (build cache (project ()));
  let r = build cache (project ~comment:"new words, same declarations" ()) in
  Alcotest.(check (list string)) "nothing recompiles" [] r.Project.recompiled;
  Alcotest.(check (list string)) "everything reused" [ "Aux"; "Main" ] r.Project.reused;
  Alcotest.(check bool) "cutoff recorded at Lib" true (List.mem "Lib" r.Project.cutoffs);
  Alcotest.(check bool) "refresh prepass charged" true (r.Project.refresh_units > 0.)

let test_sig_edit_rebuilds_only_users () =
  let cache = Project.cache () in
  ignore (build cache (project ()));
  (* Lib.base is used only by Main *)
  let r = build cache (project ~base:11 ()) in
  Alcotest.(check (list string)) "base edit: only Main" [ "Main" ] r.Project.recompiled;
  Alcotest.(check (list string)) "Aux survives" [ "Aux" ] r.Project.reused;
  (* Lib.limit is used only by Aux; Aux's own interface text never went
     stale, so Main survives too and no interface is a cutoff *)
  let r2 = build cache (project ~base:11 ~limit:6 ()) in
  Alcotest.(check (list string)) "limit edit: only Aux" [ "Aux" ] r2.Project.recompiled;
  Alcotest.(check (list string)) "limit edit: no cutoffs" [] r2.Project.cutoffs

let test_iface_changes_name_the_slice () =
  let cache = Project.cache () in
  ignore (build cache (project ()));
  let r = build cache (project ~limit:6 ()) in
  match List.assoc_opt "Lib" r.Project.settled with
  | Some (Project.Changed slices) ->
      Alcotest.(check (list string)) "exactly the edited slice" [ "limit" ] slices
  | _ -> Alcotest.fail "Lib not settled as changed"

let test_coarse_mode_rebuilds_all_importers () =
  let cache = Project.cache () in
  ignore (build cache ~fine:false (project ()));
  let r = build cache ~fine:false (project ~comment:"same declarations" ()) in
  Alcotest.(check (list string)) "whole-module invalidation rebuilds both" [ "Aux"; "Main" ]
    r.Project.recompiled;
  Alcotest.(check (list string)) "no cutoffs in coarse mode" [] r.Project.cutoffs

let test_negative_dependency () =
  let cache = Project.cache () in
  let broken =
    store ~name:"Main"
      ~defs:[ ("Lib", lib_def ()) ]
      "IMPLEMENTATION MODULE Main;\nIMPORT Lib;\nVAR a: INTEGER;\nBEGIN\n  a := Lib.bonus\nEND Main.\n"
  in
  let r1 = build cache broken in
  Alcotest.(check bool) "unresolved import is an error" false r1.Project.ok;
  (* adding the probed-and-missed name must invalidate the cached result *)
  let fixed =
    store ~name:"Main"
      ~defs:[ ("Lib", lib_def ~extra:"CONST bonus = 3;\n" ()) ]
      "IMPLEMENTATION MODULE Main;\nIMPORT Lib;\nVAR a: INTEGER;\nBEGIN\n  a := Lib.bonus\nEND Main.\n"
  in
  let r2 = build cache fixed in
  Alcotest.(check (list string)) "Main rebuilds" [ "Main" ] r2.Project.recompiled;
  Alcotest.(check bool) "and now compiles" true r2.Project.ok

let test_explain_covers_every_module () =
  let cache = Project.cache () in
  let r1 = build cache (project ()) in
  Alcotest.(check (list string)) "one reason per module" [ "Aux"; "Main" ]
    (List.map fst r1.Project.explain);
  List.iter
    (fun (_, why) ->
      Alcotest.(check bool) "first build recompiles" true
        (String.starts_with ~prefix:"recompiled:" why))
    r1.Project.explain;
  let r2 = build cache (project ~base:11 ()) in
  Alcotest.(check bool) "slice named in Main's reason" true
    (List.exists
       (fun (m, why) ->
         m = "Main"
         && String.starts_with ~prefix:"recompiled:" why
         && List.exists (fun needle -> needle = "Lib.base")
              (String.split_on_char ' ' why))
       r2.Project.explain)

let test_slice_digests_uid_free () =
  (* two independent compilations: equal slice and shape digests show
     that the rendering depends on nothing but the declarations *)
  let artifact () =
    let bc = Build_cache.create () in
    ignore (compile_cached bc (project ()));
    match Build_cache.latest_artifact bc "Lib" with
    | Some a -> a
    | None -> Alcotest.fail "no Lib artifact"
  in
  let a1 = artifact () and a2 = artifact () in
  Alcotest.(check (list (pair string string))) "slice digests stable"
    a1.Artifact.a_slices a2.Artifact.a_slices;
  Alcotest.(check string) "shape digest stable" a1.Artifact.a_shape a2.Artifact.a_shape

(* An artifact is a function of its text and its imports' artifacts:
   two DES compilations in one process and a compilation on two
   domains, each into a fresh cache, give every interface of the
   largest suite program one identity. *)
let test_artifacts_reproducible () =
  let s = Mcc_synth.Suite.program ~seed:3 36 in
  let digests compile =
    let bc = Build_cache.create () in
    compile bc;
    List.map
      (fun (a : Artifact.t) -> (a.Artifact.a_name, a.Artifact.a_digest))
      (Build_cache.interfaces bc)
  in
  let des () = digests (fun bc -> ignore (compile_cached bc s)) in
  let first = des () in
  Alcotest.(check int) "every interface has an artifact" (List.length (Source_store.def_names s))
    (List.length first);
  Alcotest.(check (list (pair string string))) "DES against DES" first (des ());
  Alcotest.(check (list (pair string string))) "DES against two domains" first
    (digests (fun bc ->
         ignore (Driver.compile_domains ~cache:(Build_cache.graph bc s) ~domains:2 s)))

let test_install_vs_slice_digests () =
  let artifact_of defs =
    let bc = Build_cache.create () in
    ignore
      (compile_cached bc
         (store ~name:"Main" ~defs
            "IMPLEMENTATION MODULE Main;\nIMPORT Lib;\nBEGIN\nEND Main.\n"));
    Option.get (Build_cache.latest_artifact bc "Lib")
  in
  let base = artifact_of [ ("Lib", lib_def ()) ] in
  let const_edit = artifact_of [ ("Lib", lib_def ~limit:6 ()) ] in
  let var_edit =
    artifact_of [ ("Lib", lib_def ~extra:"VAR spare: INTEGER;\n" ()) ]
  in
  Alcotest.(check string) "const edit leaves install digest alone"
    base.Artifact.a_install const_edit.Artifact.a_install;
  Alcotest.(check bool) "but moves the slice"
    true (Artifact.slice base "limit" <> Artifact.slice const_edit "limit");
  Alcotest.(check bool) "untouched slice stays" true
    (Artifact.slice base "base" = Artifact.slice const_edit "base");
  Alcotest.(check bool) "a VAR changes the frame, hence install digest" true
    (base.Artifact.a_install <> var_edit.Artifact.a_install)

let suite_program rank = Mcc_synth.Suite.program ~seed:7 rank

(* a suite program with interfaces, as a multi-module project *)
let multi_module_rank =
  let rec find r =
    if r > 36 then Alcotest.fail "no suite program with interfaces"
    else if List.length (Source_store.def_names (suite_program r)) >= 2 then r
    else find (r + 1)
  in
  find 0

let test_with_impls_makes_project () =
  let s = Gen.with_impls (suite_program multi_module_rank) in
  let expected = 1 + List.length (Source_store.def_names s) in
  Alcotest.(check int) "every interface becomes a compiled module" expected
    (List.length (Project.init_order s));
  let r = Project.compile s in
  Alcotest.(check bool) "project compiles cleanly" true r.Project.ok

let test_edit_stream_deterministic () =
  let s = suite_program multi_module_rank in
  let render e =
    Printf.sprintf "%s %s %s %s" (Gen.class_name e.Gen.e_class) e.Gen.e_target
      (Option.value ~default:"-" e.Gen.e_slice)
      (Digest.to_hex (Digest.string (Source_store.main_src e.Gen.e_store)))
  in
  let run () = List.map render (Gen.edit_stream ~seed:3 ~n:12 s) in
  Alcotest.(check (list string)) "same seed, same stream" (run ()) (run ());
  Alcotest.(check bool) "different seed, different stream" true
    (run () <> List.map render (Gen.edit_stream ~seed:4 ~n:12 s))

let test_edit_stream_classes_behave () =
  let s = suite_program multi_module_rank in
  let edits = Gen.edit_stream ~seed:11 ~n:10 s in
  let cache = Project.cache () in
  ignore (Project.compile ~cache (Gen.with_impls s));
  List.iter
    (fun (e : Gen.edit) ->
      let r = Project.compile ~cache e.Gen.e_store in
      Alcotest.(check bool) "edited project compiles" true r.Project.ok;
      match e.Gen.e_class with
      | Gen.Body_only ->
          Alcotest.(check (list string))
            ("body-only edit of " ^ e.Gen.e_target ^ " rebuilds it alone")
            [ e.Gen.e_target ] r.Project.recompiled
      | Gen.Sig_preserving ->
          Alcotest.(check (list string))
            ("sig-preserving edit of " ^ e.Gen.e_target ^ " rebuilds nothing") []
            r.Project.recompiled;
          Alcotest.(check bool) "and is an early cutoff" true
            (List.mem e.Gen.e_target r.Project.cutoffs)
      | Gen.Sig_changing ->
          Alcotest.(check bool)
            ("sig-changing edit of " ^ e.Gen.e_target ^ " spares some module")
            true
            (List.length r.Project.recompiled < List.length r.Project.modules))
    edits

let test_warm_stream_equals_cold () =
  let s = suite_program multi_module_rank in
  let edits = Gen.edit_stream ~seed:5 ~n:8 s in
  let cache = Project.cache () in
  ignore (Project.compile ~cache (Gen.with_impls s));
  List.iteri
    (fun i (e : Gen.edit) ->
      let warm = Project.compile ~cache e.Gen.e_store in
      let cold = Project.compile e.Gen.e_store in
      Alcotest.(check string)
        (Printf.sprintf "edit %d (%s): identical object code" i
           (Gen.class_name e.Gen.e_class))
        (dis cold.Project.program) (dis warm.Project.program);
      Alcotest.(check int)
        (Printf.sprintf "edit %d: same diagnostic count" i)
        (List.length cold.Project.diags)
        (List.length warm.Project.diags))
    edits

let test_fine_never_worse_than_coarse () =
  let s = suite_program multi_module_rank in
  let edits = Gen.edit_stream ~seed:9 ~n:6 s in
  let fine = Project.cache () and coarse = Project.cache () in
  ignore (Project.compile ~cache:fine (Gen.with_impls s));
  ignore (Project.compile ~fine:false ~cache:coarse (Gen.with_impls s));
  List.iter
    (fun (e : Gen.edit) ->
      let rf = Project.compile ~cache:fine e.Gen.e_store in
      let rc = Project.compile ~fine:false ~cache:coarse e.Gen.e_store in
      Alcotest.(check bool) "fine rebuilds a subset" true
        (List.for_all (fun m -> List.mem m rc.Project.recompiled) rf.Project.recompiled))
    edits

(* --- the refresh prepass: waves, re-keys and kept artifacts --- *)

(* How the build settled each stale interface, reduced to its verb. *)
let settled_verbs (r : Project.result) =
  List.map
    (fun (n, how) ->
      ( n,
        match how with
        | Project.Rekeyed -> "re-keyed"
        | Project.Kept -> "kept"
        | Project.Changed _ -> "changed" ))
    r.Project.settled

let settled_as pred r =
  List.sort compare (List.filter_map (fun (n, v) -> if pred v then Some n else None) (settled_verbs r))

let analysed = settled_as (( <> ) "re-keyed")
let rekeyed = settled_as (( = ) "re-keyed")

let same_as_cold what (warm : Project.result) store =
  let cold = Project.compile store in
  Alcotest.(check string) (what ^ ": object code of a cold build") (dis cold.Project.program)
    (dis warm.Project.program);
  Alcotest.(check (list string)) (what ^ ": diagnostics of a cold build")
    (diag_strings cold.Project.diags) (diag_strings warm.Project.diags)

let with_def s name src =
  Source_store.make
    ~impls:(List.map (fun i -> (i, Option.get (Source_store.impl_src s i))) (Source_store.impl_names s))
    ~main_name:(Source_store.main_name s) ~main_src:(Source_store.main_src s)
    ~defs:
      (List.map
         (fun d -> (d, if d = name then src else Option.get (Source_store.def_src s d)))
         (Source_store.def_names s))
    ()

let test_deep_chain_rekeys () =
  let dir = Filename.concat (Lazy.force corpus_dir) "deep-chain" in
  let base = Source_store.of_directory ~dir ~main_name:"DeepChain" in
  let edited = with_def base "D01" (read_file (Filename.concat dir "D01.def.comment-edit")) in
  let cache = Project.cache () in
  ignore (build cache base);
  let _, misses0, _ = Build_cache.counters cache.Project.bc in
  let r = build cache edited in
  let _, misses1, _ = Build_cache.counters cache.Project.bc in
  let chain = List.init 33 (fun i -> Printf.sprintf "D%02d" (i + 1)) in
  Alcotest.(check (list (pair string string))) "D01 kept, D02-D33 re-keyed, in chain order"
    (("D01", "kept") :: List.map (fun n -> (n, "re-keyed")) (List.tl chain))
    (settled_verbs r);
  Alcotest.(check int) "one interface analysed" 1 (misses1 - misses0);
  Alcotest.(check (list string)) "all 33 are cutoffs" chain r.Project.cutoffs;
  Alcotest.(check (list string)) "nothing recompiled" [] r.Project.recompiled;
  Alcotest.(check bool) "the module hits by key" true
    (List.assoc "DeepChain" r.Project.explain = "reused: unchanged inputs (whole-module key hit)");
  same_as_cold "comment edit" r edited

(* Base <- Mid1 (uses Base.k), Base <- Mid2, Mid1 <- Top1, Mid2 <- Top2;
   Main imports the tops and Mid1. *)
let wave_project ~k =
  store ~name:"Main"
    ~defs:
      [
        ( "Base",
          Printf.sprintf "DEFINITION MODULE Base;\nCONST k = %d;\nCONST j = 7;\nEND Base.\n" k );
        ("Mid1", "DEFINITION MODULE Mid1;\nIMPORT Base;\nCONST m = Base.k + 1;\nEND Mid1.\n");
        ("Mid2", "DEFINITION MODULE Mid2;\nIMPORT Base;\nCONST n = Base.j + 1;\nEND Mid2.\n");
        ("Top1", "DEFINITION MODULE Top1;\nIMPORT Mid1;\nCONST t = 3;\nEND Top1.\n");
        ("Top2", "DEFINITION MODULE Top2;\nIMPORT Mid2;\nCONST u = Mid2.n;\nEND Top2.\n");
      ]
    "IMPLEMENTATION MODULE Main;\nIMPORT Mid1, Top1, Top2;\nBEGIN\n  WriteInt(Mid1.m + Top1.t + Top2.u)\nEND Main.\n"

let test_sig_edit_waves () =
  let cache = Project.cache () in
  ignore (build cache (wave_project ~k:1));
  let edited = wave_project ~k:2 in
  let r = build cache edited in
  (* Base changed; its importers Mid1 (changed) and Mid2 (kept) are
     analysed; Top1 imports a changed Mid1, so it is analysed (and
     kept); Top2 imports a kept Mid2, so it is re-keyed *)
  Alcotest.(check (list (pair string string))) "settled in waves"
    [
      ("Base", "changed"); ("Mid1", "changed"); ("Mid2", "kept"); ("Top1", "kept");
      ("Top2", "re-keyed");
    ]
    (List.sort compare (settled_verbs r));
  Alcotest.(check (list string)) "changed slices"
    [ "Base"; "Mid1" ]
    (List.sort compare
       (List.filter_map
          (function n, Project.Changed _ -> Some n | _ -> None)
          r.Project.settled));
  Alcotest.(check (list string)) "cutoffs" [ "Mid2"; "Top1"; "Top2" ] r.Project.cutoffs;
  Alcotest.(check (list string)) "Main used Mid1.m" [ "Main" ] r.Project.recompiled;
  same_as_cold "sig edit" r edited;
  (* and a second edit back settles the same way from the new state *)
  let back = wave_project ~k:1 in
  let r2 = build cache back in
  Alcotest.(check (list string)) "edit back: the same interfaces analysed"
    [ "Base"; "Mid1"; "Mid2"; "Top1" ] (analysed r2);
  Alcotest.(check (list string)) "edit back: Top2 re-keyed" [ "Top2" ] (rekeyed r2);
  same_as_cold "edit back" r2 back

(* B declares [VAR x: A.T]; A's constant changes and B's shape does not.
   [T] is where A declares it, in either version of A, so B's previous
   artifact names the type A now declares: B is kept, and C, which
   imports B, is re-keyed. *)
let coupling_project ~k =
  store ~name:"Main"
    ~defs:
      [
        ( "A",
          Printf.sprintf
            "DEFINITION MODULE A;\nTYPE T = RECORD a: INTEGER END;\nCONST k = %d;\nEND A.\n" k );
        ("B", "DEFINITION MODULE B;\nIMPORT A;\nVAR x: A.T;\nEND B.\n");
        ("C", "DEFINITION MODULE C;\nIMPORT B;\nCONST c = 5;\nEND C.\n");
      ]
    ~impls:[ ("B", "IMPLEMENTATION MODULE B;\nBEGIN\n  x.a := 4\nEND B.\n") ]
    "IMPLEMENTATION MODULE Main;\nIMPORT A, B, C;\nVAR y: A.T;\nBEGIN\n  y := B.x;\n  WriteInt(y.a + A.k + C.c)\nEND Main.\n"

let test_typed_import_keeps () =
  let cache = Project.cache () in
  let r0 = build cache (coupling_project ~k:1) in
  Alcotest.(check bool) "the project compiles" true r0.Project.ok;
  let edited = coupling_project ~k:2 in
  let r = build cache edited in
  Alcotest.(check (list string)) "A and B are re-analysed" [ "A"; "B" ] (analysed r);
  Alcotest.(check (list string)) "B's importer C is re-keyed" [ "C" ] (rekeyed r);
  Alcotest.(check bool) "B keeps its artifact and is a cutoff" true
    (List.assoc "B" (settled_verbs r) = "kept" && List.mem "B" r.Project.cutoffs);
  Alcotest.(check bool) "the edited build compiles" true r.Project.ok;
  same_as_cold "coupled edit" r edited

(* Lib declares A1 and A2 with one structure.  Whether A2 is A1 or a
   type of its own decides whether Main's assignment compiles: A2's
   slice renders the identity of the type it names, so it moves. *)
let alias_project ~alias =
  store ~name:"Main"
    ~defs:
      [
        ( "Lib",
          Printf.sprintf
            "DEFINITION MODULE Lib;\nTYPE A1 = ARRAY [0..3] OF INTEGER;\nTYPE A2 = %s;\nEND Lib.\n"
            (if alias then "A1" else "ARRAY [0..3] OF INTEGER") );
      ]
    "IMPLEMENTATION MODULE Main;\nIMPORT Lib;\nVAR x: Lib.A1; y: Lib.A2;\nBEGIN\n  x[0] := 1;\n  y := x;\n  WriteInt(y[0])\nEND Main.\n"

let test_type_identity_edit () =
  List.iter
    (fun alias ->
      let what = if alias then "alias to copy" else "copy to alias" in
      let cache = Project.cache () in
      let r0 = build cache (alias_project ~alias) in
      Alcotest.(check bool) (what ^ ": before the edit") alias r0.Project.ok;
      let edited = alias_project ~alias:(not alias) in
      let r = build cache edited in
      Alcotest.(check bool) (what ^ ": Lib's A2 changed") true
        (List.assoc_opt "Lib" r.Project.settled = Some (Project.Changed [ "A2" ]));
      Alcotest.(check (list string)) (what ^ ": Main recompiles") [ "Main" ] r.Project.recompiled;
      Alcotest.(check bool) (what ^ ": after the edit") (not alias) r.Project.ok;
      same_as_cold what r edited;
      (* the stored artifact is the edited text's: a later importer
         compilation sees the types the text declares *)
      let touched =
        Source_store.make ~main_name:"Main"
          ~main_src:(Source_store.main_src edited ^ "(* touched *)\n")
          ~defs:[ ("Lib", Option.get (Source_store.def_src edited "Lib")) ]
          ()
      in
      let r2 = build cache touched in
      Alcotest.(check (list string)) (what ^ ": touched Main recompiles") [ "Main" ]
        r2.Project.recompiled;
      same_as_cold (what ^ ", Main touched") r2 touched)
    [ true; false ]

(* corpus/mutual-def: CycA and CycB import each other. *)
let mutual_def () =
  Source_store.of_directory ~dir:(Filename.concat (Lazy.force corpus_dir) "mutual-def")
    ~main_name:"Mutual"

(* corpus/mutual-use under Avoidance deadlocks, and the diagnostic
   names event and task ids.  Those count from 0 in every compile, so
   a warm build (which replays the memoized text) and a second cold
   build on a fresh cache in the same process print the first cold
   build's text exactly. *)
let test_warm_cold_diags_history_free () =
  let s =
    Source_store.of_directory ~dir:(Filename.concat (Lazy.force corpus_dir) "mutual-use")
      ~main_name:"Mutual"
  in
  let config = { Driver.default_config with Driver.strategy = Mcc_sem.Symtab.Avoidance } in
  let diags cache = diag_strings (Project.compile ~config ~cache s).Project.diags in
  let cache = Project.cache () in
  let cold = diags cache in
  Alcotest.(check bool) "the cold build deadlocks" true
    (List.exists (contains ~sub:"compilation deadlocked") cold);
  Alcotest.(check (list string)) "warm == cold" cold (diags cache);
  Alcotest.(check (list string)) "a second cold build == the first" cold (diags (Project.cache ()))

(* A cold build analyses each member of the cycle once, and the first
   warm build hits every module by key. *)
let test_cyclic_noop_key_hits () =
  let s = mutual_def () in
  let cache = Project.cache () in
  ignore (build cache s);
  let _, misses, invalidated = Build_cache.counters cache.Project.bc in
  Alcotest.(check (pair int int)) "cold: 2 misses, 0 invalidated" (2, 0) (misses, invalidated);
  let r = build cache s in
  Alcotest.(check (list string)) "nothing recompiled" [] r.Project.recompiled;
  List.iter
    (fun (m, why) ->
      Alcotest.(check string) (m ^ " hits by key")
        "reused: unchanged inputs (whole-module key hit)" why)
    r.Project.explain

(* A cycle's fingerprints do not depend on the member a read enters by,
   and each covers every member's text. *)
let test_cyclic_fingerprints_entry_free () =
  let s = mutual_def () in
  let bc = Build_cache.create () in
  let fps s entry =
    let g = Build_cache.graph bc s in
    ignore (Build_cache.fingerprint g entry);
    List.map (fun m -> fst (Build_cache.fingerprint g m)) [ "CycA"; "CycB" ]
  in
  let at_a = fps s "CycA" in
  Alcotest.(check (list string)) "entered at CycA or at CycB" at_a (fps s "CycB");
  let edited = with_def s "CycA" (Option.get (Source_store.def_src s "CycA") ^ "(* edited *)\n") in
  List.iter2
    (fun m (before, after) -> Alcotest.(check bool) (m ^ " moves") true (before <> after))
    [ "CycA"; "CycB" ]
    (List.combine at_a (fps edited "CycB"))

(* After a comment edit of CycA.def, both members are re-analysed and
   kept, so every module still hits by key. *)
let test_cyclic_comment_edit_keeps () =
  let s = mutual_def () in
  let cache = Project.cache () in
  ignore (build cache s);
  let edited = with_def s "CycA" (Option.get (Source_store.def_src s "CycA") ^ "(* edited *)\n") in
  let r = build cache edited in
  Alcotest.(check (list (pair string string))) "both members kept"
    [ ("CycA", "kept"); ("CycB", "kept") ]
    (List.sort compare (settled_verbs r));
  List.iter
    (fun (m, why) ->
      Alcotest.(check string) (m ^ " hits by key")
        "reused: unchanged inputs (whole-module key hit)" why)
    r.Project.explain;
  same_as_cold "comment edit" r edited

(* CycB's constant changes and CycA's shape does not.  Each member of a
   cycle is kept or changed by its own shape: CycA keeps its artifact. *)
let test_cycle_member_keeps () =
  let s = mutual_def () in
  let cache = Project.cache () in
  ignore (build cache s);
  let edited =
    with_def s "CycB"
      "DEFINITION MODULE CycB;\nIMPORT CycA;\nCONST baseB = 7;\nPROCEDURE UseB(): INTEGER;\nEND CycB.\n"
  in
  let r = build cache edited in
  Alcotest.(check bool) "CycA kept, CycB changed" true
    (List.sort compare r.Project.settled
    = [ ("CycA", Project.Kept); ("CycB", Project.Changed [ "baseB" ]) ]);
  same_as_cold "constant edit" r edited

(* CycA's variable has CycB's record type, so CycA's artifact names a
   type of CycB's, and Main assigns across the two members. *)
let typed_cycle ?(comment_a = "") ?(comment_b = "") ?(comment_main = "") () =
  store ~name:"Main"
    ~defs:
      [
        ("CycA", "DEFINITION MODULE CycA;\nIMPORT CycB;\nVAR v: CycB.T;\nEND CycA.\n" ^ comment_a);
        ( "CycB",
          "DEFINITION MODULE CycB;\nIMPORT CycA;\nTYPE T = RECORD x: INTEGER END;\nEND CycB.\n"
          ^ comment_b );
      ]
    ~impls:[ ("CycA", "IMPLEMENTATION MODULE CycA;\nBEGIN\n  v.x := 4\nEND CycA.\n") ]
    ("IMPLEMENTATION MODULE Main;\nIMPORT CycA, CycB;\nVAR t: CycB.T;\nBEGIN\n  t := CycA.v;\n  WriteInt(t.x)\nEND Main.\n"
    ^ comment_main)

(* A comment edit of either member keeps both previous artifacts. *)
let test_typed_cycle_comment_edits_keep () =
  let cache = Project.cache () in
  let r0 = build cache (typed_cycle ()) in
  Alcotest.(check bool) "the project compiles" true r0.Project.ok;
  List.iter
    (fun (what, edited) ->
      let r = build cache edited in
      Alcotest.(check (list (pair string string))) (what ^ ": both members kept")
        [ ("CycA", "kept"); ("CycB", "kept") ]
        (List.sort compare (settled_verbs r));
      List.iter
        (fun (m, why) ->
          Alcotest.(check string) (what ^ ": " ^ m ^ " hits by key")
            "reused: unchanged inputs (whole-module key hit)" why)
        r.Project.explain;
      same_as_cold what r edited)
    [
      ("CycA comment", typed_cycle ~comment_a:"(* a *)\n" ());
      ("CycB comment", typed_cycle ~comment_a:"(* a *)\n" ~comment_b:"(* b *)\n" ());
    ];
  (* Main's assignment across the members is checked again against the
     kept artifacts *)
  let touched = typed_cycle ~comment_a:"(* a *)\n" ~comment_b:"(* b *)\n" ~comment_main:"(* m *)\n" () in
  let r = build cache touched in
  Alcotest.(check (list string)) "Main touched: Main recompiled" [ "Main" ] r.Project.recompiled;
  Alcotest.(check bool) "Main touched: compiles" true r.Project.ok;
  same_as_cold "Main touched" r touched

(* The suite's three projects with the most interfaces. *)
let largest_projects =
  lazy
    (List.init Mcc_synth.Suite.n_programs suite_program
    |> List.map (fun s -> (List.length (Source_store.def_names s), s))
    |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
    |> List.filteri (fun i _ -> i < 3)
    |> List.map snd)

let test_large_streams_equal_cold () =
  let classes = ref [] in
  List.iteri
    (fun p s ->
      let cache = Project.cache () in
      ignore (Project.compile ~cache (Gen.with_impls s));
      List.iteri
        (fun i (e : Gen.edit) ->
          classes := e.Gen.e_class :: !classes;
          let warm = Project.compile ~cache e.Gen.e_store in
          same_as_cold
            (Printf.sprintf "project %d, edit %d (%s %s)" p i (Gen.class_name e.Gen.e_class)
               e.Gen.e_target)
            warm e.Gen.e_store)
        (Gen.edit_stream ~seed:(13 + p) ~n:4 s))
    (Lazy.force largest_projects);
  Alcotest.(check int) "every edit class replayed" 3
    (List.length (List.sort_uniq compare !classes))

(* Slice digests are pinned: every interface of every multi-module
   project of the suite (default seed, with implementations) hashes its
   exported names' slice digests to the recorded value.  The digests
   render type identities and structure, so a change to the renderer,
   to how identities are formed, or to what a declaration's analysis
   yields, shows here.  On a mismatch the lines this build observed
   are written to slice_digests.actual in the test's working
   directory. *)
let test_slice_digests_pinned () =
  let expected =
    String.split_on_char '\n' (read_file (repo_path "test/slice_digests.expected"))
    |> List.filter (( <> ) "")
  in
  let actual =
    List.concat
      (List.init Mcc_synth.Suite.n_programs (fun rank ->
           let s = Mcc_synth.Suite.program rank in
           if Source_store.def_names s = [] then []
           else begin
             let cache = Project.cache () in
             ignore (Project.compile ~cache (Gen.with_impls s));
             List.map
               (fun (a : Artifact.t) ->
                 let body =
                   String.concat "" (List.map (fun (n, d) -> n ^ "=" ^ d ^ "\n") a.Artifact.a_slices)
                 in
                 Printf.sprintf "%d %s %d %s" rank a.Artifact.a_name
                   (List.length a.Artifact.a_slices)
                   (Digest.to_hex (Digest.string body)))
               (Build_cache.interfaces cache.Project.bc)
           end))
  in
  if actual <> expected then
    Out_channel.with_open_bin "slice_digests.actual" (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
  Alcotest.(check int) "one line per interface" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "slice digests" e a) expected actual

(* --- persistence: the module memo survives a process boundary --- *)

let temp_cache_dir () =
  let f = Filename.temp_file "mcc-incr" "" in
  Sys.remove f;
  f (* Project.save creates the directory *)

let with_temp_dir f =
  let dir = temp_cache_dir () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_memo_persists_across_processes () =
  with_temp_dir @@ fun dir ->
  let c1 = Project.cache ~dir () in
  let cold = build c1 (project ()) in
  Project.save c1;
  (* a fresh process would load both artifacts and module results *)
  let c2 = Project.cache ~dir () in
  let warm = build c2 (project ()) in
  Alcotest.(check (list string)) "everything reused" [ "Aux"; "Main" ] warm.Project.reused;
  Alcotest.(check (list string)) "nothing recompiled" [] warm.Project.recompiled;
  Alcotest.(check string) "identical object code" (dis cold.Project.program)
    (dis warm.Project.program)

let test_slice_invalidation_across_processes () =
  with_temp_dir @@ fun dir ->
  let c1 = Project.cache ~dir () in
  ignore (build c1 (project ()));
  Project.save c1;
  (* Lib.base is used only by Main: a fresh process sees the edit and
     recompiles Main alone, from the persisted dependency records *)
  let c2 = Project.cache ~dir () in
  let r = build c2 (project ~base:11 ()) in
  Alcotest.(check (list string)) "only Main recompiles" [ "Main" ] r.Project.recompiled;
  Alcotest.(check (list string)) "Aux survives from disk" [ "Aux" ] r.Project.reused;
  Alcotest.(check bool) "and compiles" true r.Project.ok

(* --- the keys and charges of [m2c build] steps, pinned --- *)

(* test/build_keys.expected: per build step (load the on-disk cache,
   compile, save) of a few edit streams, the init order, each
   interface's stored fingerprint and identity, each module's key, the
   reuse/refresh/total units and the cache counters.  On a
   mismatch the lines this build observed are written to
   build_keys.actual in the test's working directory. *)

let build_key_streams () =
  let suite rank =
    let s = Gen.with_impls (Mcc_synth.Suite.program ~seed:3 rank) in
    ( Printf.sprintf "suite%d" rank,
      s :: s :: List.map (fun e -> e.Gen.e_store) (Gen.edit_stream ~seed:3 ~n:12 s) )
  in
  let scale =
    let s = Gen.with_impls (Mcc_zoo.Scale.flat_store ~seed:3 200) in
    ("scale200", s :: s :: List.map (fun e -> e.Gen.e_store) (Gen.edit_stream ~seed:3 ~n:6 s))
  in
  let mutual =
    let dir = Filename.concat (Lazy.force corpus_dir) "mutual-def" in
    let s = M2lib.augment (Source_store.of_directory ~dir ~main_name:"Mutual") in
    let comment name (s : Source_store.t) =
      let defs =
        List.map
          (fun n ->
            let src = Option.get (Source_store.def_src s n) in
            (n, if n = name then src ^ "(* edited *)\n" else src))
          (Source_store.def_names s)
      in
      let impls =
        List.filter_map
          (fun n ->
            if n = Source_store.main_name s then None
            else Option.map (fun src -> (n, src)) (Source_store.impl_src s n))
          (Source_store.impl_names s)
      in
      Source_store.make ~impls ~main_name:(Source_store.main_name s)
        ~main_src:(Source_store.main_src s) ~defs ()
    in
    let a = comment "CycA" s in
    ("mutual-def", [ s; s; a; comment "CycB" a ])
  in
  [ suite 0; suite 9; suite 36; scale; mutual ]

let build_key_lines () =
  let tag = Project.config_tag Driver.default_config in
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun l -> lines := l :: !lines) fmt in
  List.iter
    (fun (label, stores) ->
      with_temp_dir @@ fun dir ->
      List.iteri
        (fun i store ->
          let c = Project.cache ~dir () in
          let r = Project.compile ~cache:c store in
          Project.save c;
          let step = Printf.sprintf "%s/%d" label i in
          add "%s order %s" step (String.concat " " r.Project.modules);
          List.iter
            (fun n ->
              match Build_cache.latest c.Project.bc n with
              | None -> add "%s iface %s none" step n
              | Some s ->
                  add "%s iface %s fp=%s id=%s" step n (Build_cache.stored_fingerprint s)
                    (Build_cache.stored_identity s))
            (Source_store.def_names store);
          List.iter
            (fun n ->
              match Build_cache.find_latest_module c.Project.memo ~name:(tag ^ "|" ^ n) with
              | None -> add "%s module %s none" step n
              | Some (key, _) -> add "%s module %s key=%s" step n key)
            r.Project.modules;
          let h, m, inv = Build_cache.counters c.Project.bc in
          let mh, mm, minv = Build_cache.memo_counters c.Project.memo in
          add "%s units reuse=%h refresh=%h total=%h iface=%d/%d/%d memo=%d/%d/%d" step
            r.Project.reuse_units r.Project.refresh_units r.Project.total_units h m inv mh mm minv)
        stores)
    (build_key_streams ());
  List.rev !lines

let test_build_keys_golden () =
  let actual = build_key_lines () in
  let expected =
    List.filter (( <> ) "")
      (String.split_on_char '\n' (read_file (repo_path "test/build_keys.expected")))
  in
  if actual <> expected then begin
    Out_channel.with_open_bin "build_keys.actual" (fun oc ->
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

let () =
  Alcotest.run "incr"
    [
      ( "slices",
        [
          Alcotest.test_case "uid-free digests" `Quick test_slice_digests_uid_free;
          Alcotest.test_case "artifacts are reproducible" `Quick test_artifacts_reproducible;
          Alcotest.test_case "install vs slice digests" `Quick test_install_vs_slice_digests;
          Alcotest.test_case "digests pinned over the suite" `Quick test_slice_digests_pinned;
        ] );
      ( "refresh",
        [
          Alcotest.test_case "deep-chain comment edit re-keys" `Quick test_deep_chain_rekeys;
          Alcotest.test_case "sig edit settles in waves" `Quick test_sig_edit_waves;
          Alcotest.test_case "a typed import keeps its importer" `Quick test_typed_import_keeps;
          Alcotest.test_case "type identity edit, both ways" `Quick test_type_identity_edit;
          Alcotest.test_case "cyclic closures hit by key" `Quick test_cyclic_noop_key_hits;
          Alcotest.test_case "cyclic fingerprints are entry-free" `Quick
            test_cyclic_fingerprints_entry_free;
          Alcotest.test_case "cyclic comment edit keeps both" `Quick
            test_cyclic_comment_edit_keeps;
          Alcotest.test_case "a cycle member keeps by its own shape" `Quick
            test_cycle_member_keeps;
          Alcotest.test_case "a typed cycle keeps both members" `Quick
            test_typed_cycle_comment_edits_keep;
          Alcotest.test_case "largest projects: warm == cold" `Quick
            test_large_streams_equal_cold;
          Alcotest.test_case "warm == cold diagnostics across process history" `Quick
            test_warm_cold_diags_history_free;
        ] );
      ( "project",
        [
          Alcotest.test_case "body-only edit rebuilds one module" `Quick
            test_body_only_rebuilds_one;
          Alcotest.test_case "sig-preserving edit rebuilds nothing" `Quick
            test_sig_preserving_rebuilds_nothing;
          Alcotest.test_case "sig edit rebuilds only slice users" `Quick
            test_sig_edit_rebuilds_only_users;
          Alcotest.test_case "iface_changes names the slice" `Quick
            test_iface_changes_name_the_slice;
          Alcotest.test_case "coarse mode rebuilds all importers" `Quick
            test_coarse_mode_rebuilds_all_importers;
          Alcotest.test_case "negative dependency invalidates" `Quick test_negative_dependency;
          Alcotest.test_case "explain covers every module" `Quick
            test_explain_covers_every_module;
        ] );
      ( "edit-stream",
        [
          Alcotest.test_case "with_impls makes a project" `Quick test_with_impls_makes_project;
          Alcotest.test_case "deterministic" `Quick test_edit_stream_deterministic;
          Alcotest.test_case "classes behave" `Quick test_edit_stream_classes_behave;
          Alcotest.test_case "warm stream == cold builds" `Quick test_warm_stream_equals_cold;
          Alcotest.test_case "fine rebuilds subset of coarse" `Quick
            test_fine_never_worse_than_coarse;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "memo survives a process boundary" `Quick
            test_memo_persists_across_processes;
          Alcotest.test_case "slice invalidation from disk" `Quick
            test_slice_invalidation_across_processes;
          Alcotest.test_case "build keys and charges golden" `Quick test_build_keys_golden;
        ] );
    ]
