(* Integration tests for the concurrent compilation driver: equivalence
   with the sequential compiler across strategies, processor counts,
   heading alternatives and engines; determinism; failure injection. *)

open Tutil
open Mcc_core
module Des = Mcc_sched.Des_engine
module Symtab = Mcc_sem.Symtab

let sample_src =
  modsrc
    ~imports:"IMPORT Lib;\nFROM Lib IMPORT base;"
    ~decls:
      {|CONST scaled = base * 2;
TYPE Rec = RECORD a, b: INTEGER END;
VAR g: INTEGER; r: Rec;
PROCEDURE Add(x, y: INTEGER): INTEGER;
BEGIN RETURN x + y END Add;
PROCEDURE Work(n: INTEGER): INTEGER;
VAR i, s: INTEGER;
  PROCEDURE Halve(v: INTEGER): INTEGER;
  BEGIN RETURN v DIV 2 END Halve;
BEGIN
  s := 0;
  FOR i := 0 TO n DO s := Add(s, Halve(i * 4)) END;
  RETURN s
END Work;|}
    ~body:"g := Work(Lib.limit) + scaled; r.a := g; WriteInt(r.a)" ()

let sample_defs =
  [
    ( "Lib",
      "DEFINITION MODULE Lib;\nCONST base = 10;\nCONST limit = 5;\nVAR counter: INTEGER;\nEND Lib.\n"
    );
  ]

let sample_store () = store ~defs:sample_defs ~name:"T" sample_src

let check_equal_programs name p1 p2 = Alcotest.(check bool) name true (String.equal (dis p1) (dis p2))

let test_conc_matches_seq_all_configs () =
  let seq = Seq_driver.compile (sample_store ()) in
  Alcotest.(check bool) "seq ok" true seq.Seq_driver.ok;
  List.iter
    (fun strategy ->
      List.iter
        (fun procs ->
          List.iter
            (fun heading ->
              let config = { Driver.default_config with Driver.strategy; procs; heading } in
              let c = Driver.compile ~config (sample_store ()) in
              Alcotest.(check bool) "conc ok" true c.Driver.ok;
              check_equal_programs
                (Printf.sprintf "%s/%d/%s" (Symtab.dky_name strategy) procs
                   (match heading with Driver.Alt1 -> "alt1" | Driver.Alt3 -> "alt3"))
                seq.Seq_driver.program c.Driver.program)
            [ Driver.Alt1; Driver.Alt3 ])
        [ 1; 3; 8 ])
    Symtab.all_concurrent

let test_compiled_program_runs () =
  let c = Driver.compile ~config:Driver.default_config (sample_store ()) in
  let r = Mcc_vm.Vm.run c.Driver.program in
  Alcotest.(check string) "output" "50" r.Mcc_vm.Vm.output

let test_deterministic_simulation () =
  let r1 = Driver.compile ~config:Driver.default_config (sample_store ()) in
  let r2 = Driver.compile ~config:Driver.default_config (sample_store ()) in
  Alcotest.(check (float 0.0)) "same virtual end time" r1.Driver.sim.Des.end_time
    r2.Driver.sim.Des.end_time;
  Alcotest.(check int) "same task count" r1.Driver.n_tasks r2.Driver.n_tasks

let test_stream_accounting () =
  let c = Driver.compile ~config:Driver.default_config (sample_store ()) in
  Alcotest.(check int) "proc streams (incl. nested)" 3 c.Driver.n_proc_streams;
  Alcotest.(check int) "def streams (Lib + own interface absent)" 1 c.Driver.n_def_streams;
  Alcotest.(check int) "streams = main + procs + defs" 5 c.Driver.n_streams

let test_speedup_on_more_processors () =
  let t n =
    (Driver.compile ~config:{ Driver.default_config with Driver.procs = n } (sample_store ()))
      .Driver.sim.Des.end_time
  in
  let t1 = t 1 and t4 = t 4 in
  Alcotest.(check bool) "t4 < t1" true (t4 < t1)

(* --- diagnostics equality on erroneous programs --- *)

let erroneous =
  modsrc
    ~decls:
      {|VAR x: INTEGER;
PROCEDURE Bad(a: INTEGER): INTEGER;
VAR y: NoSuchType;
BEGIN RETURN a + undeclared_one END Bad;|}
    ~body:"x := TRUE; undeclared_two := 1" ()

let test_diags_equal_seq_conc () =
  let seq = compile_seq erroneous in
  Alcotest.(check bool) "seq rejects" false seq.Seq_driver.ok;
  let seq_msgs = diag_strings seq.Seq_driver.diags in
  List.iter
    (fun strategy ->
      let c =
        Driver.compile ~config:{ Driver.default_config with Driver.strategy } (store ~name:"T" erroneous)
      in
      Alcotest.(check (list string))
        ("diags equal under " ^ Symtab.dky_name strategy)
        seq_msgs (diag_strings c.Driver.diags))
    Symtab.all_concurrent

let test_import_cycle_detected () =
  let defs =
    [
      ("A", "DEFINITION MODULE A;\nFROM B IMPORT kb;\nCONST ka = kb + 1;\nEND A.\n");
      ("B", "DEFINITION MODULE B;\nFROM A IMPORT ka;\nCONST kb = ka + 1;\nEND B.\n");
    ]
  in
  let src = modsrc ~imports:"IMPORT A;" ~decls:"" ~body:"" () in
  (* both engines name the stuck tasks in the same diagnostic; its ids
     count from 0 in each compile, so the text is fixed *)
  let expected =
    "T.mod:0:0: error: compilation deadlocked (circular imports?): defparse:A.def waits on \
     event#9 (B.def.complete, producer task#12); defparse:B.def waits on event#6 \
     (A.def.complete, producer task#9); merge:T gated on event#0"
  in
  let c = Driver.compile ~config:Driver.default_config (store ~defs ~name:"T" src) in
  Alcotest.(check bool) "rejected" false c.Driver.ok;
  Alcotest.(check (list string)) "deadlock reported" [ expected ] (diag_strings c.Driver.diags);
  let d1 = Driver.compile_domains ~domains:1 (store ~defs ~name:"T" src) in
  Alcotest.(check bool) "1 domain: deadlocked" true d1.Driver.d_deadlocked;
  Alcotest.(check (list string)) "1 domain: deadlock reported" [ expected ]
    (diag_strings d1.Driver.d_diags);
  (* two domains create objects in an order that varies from run to
     run, and the ids follow it: compare the text without digits *)
  let unnumbered s = String.of_seq (Seq.filter (fun c -> c < '0' || c > '9') (String.to_seq s)) in
  let d = Driver.compile_domains ~domains:2 (store ~defs ~name:"T" src) in
  Alcotest.(check bool) "domains: rejected" false d.Driver.d_ok;
  Alcotest.(check bool) "domains: deadlocked" true d.Driver.d_deadlocked;
  Alcotest.(check (list string)) "domains: deadlock reported" [ unnumbered expected ]
    (List.map unnumbered (diag_strings d.Driver.d_diags))

let test_missing_interface_concurrent () =
  let src = modsrc ~imports:"IMPORT Nope;" ~decls:"" ~body:"" () in
  let c = Driver.compile ~config:Driver.default_config (store ~name:"T" src) in
  Alcotest.(check bool) "rejected" false c.Driver.ok;
  Alcotest.(check bool) "clean completion (no deadlock)" true
    (match c.Driver.sim.Des.outcome with Des.Completed -> true | _ -> false)

(* --- domain engine (real parallelism) --- *)

let test_domains_match_seq () =
  let seq = Seq_driver.compile (sample_store ()) in
  let d = Driver.compile_domains ~domains:4 (sample_store ()) in
  Alcotest.(check bool) "ok" true d.Driver.d_ok;
  Alcotest.(check bool) "no deadlock" false d.Driver.d_deadlocked;
  check_equal_programs "domain-compiled program identical" seq.Seq_driver.program d.Driver.d_program

(* The domain engine refuses a graph of another store as the DES does
   (test_cache.ml): the compile raises and stores no artifact for it. *)
let test_domains_refuse_foreign_graph () =
  let cache = Build_cache.create () in
  let other = store ~defs:[ ("Lib", "DEFINITION MODULE Lib;\nEND Lib.\n") ] ~name:"T" sample_src in
  match Driver.compile_domains ~cache:(Build_cache.graph cache other) ~domains:2 (sample_store ()) with
  | _ -> Alcotest.fail "a graph of another store was read"
  | exception Invalid_argument _ ->
      Alcotest.(check bool) "no artifact for Lib" true (Build_cache.latest cache "Lib" = None)

let test_domains_erroneous_match () =
  let seq = compile_seq erroneous in
  let d = Driver.compile_domains ~domains:3 (store ~name:"T" erroneous) in
  Alcotest.(check (list string)) "diagnostics equal" (diag_strings seq.Seq_driver.diags)
    (diag_strings d.Driver.d_diags)

(* --- whole-program compilation (Project) --- *)

let project_store () =
  store ~name:"Main"
    ~defs:
      [
        ("Lib", "DEFINITION MODULE Lib;\nVAR hits: INTEGER;\nPROCEDURE Bump(): INTEGER;\nEND Lib.\n");
      ]
    ~impls:
      [
        ( "Lib",
          "IMPLEMENTATION MODULE Lib;\nPROCEDURE Bump(): INTEGER;\nBEGIN INC(hits); RETURN hits END Bump;\nBEGIN hits := 0\nEND Lib.\n"
        );
      ]
    "IMPLEMENTATION MODULE Main;\nIMPORT Lib;\nVAR a, b: INTEGER;\nBEGIN\n  a := Lib.Bump(); b := Lib.Bump();\n  WriteInt(a); WriteChar(' '); WriteInt(b); WriteChar(' '); WriteInt(Lib.hits)\nEND Main.\n"

let test_project_compiles_and_runs () =
  let r = Project.compile (project_store ()) in
  Alcotest.(check bool) "ok" true r.Project.ok;
  Alcotest.(check (list string)) "init order: imports before main" [ "Lib"; "Main" ]
    (Project.init_order (project_store ()));
  let run = Mcc_vm.Vm.run r.Project.program in
  Alcotest.(check string) "cross-module calls and state" "1 2 2" run.Mcc_vm.Vm.output;
  Alcotest.(check bool) "finished" true (run.Mcc_vm.Vm.status = Mcc_vm.Vm.Finished)

let test_project_deterministic_output () =
  let d1 = Mcc_codegen.Cunit.disassemble (Project.compile (project_store ())).Project.program in
  List.iter
    (fun strategy ->
      let r =
        Project.compile ~config:{ Driver.default_config with Driver.strategy; procs = 3 }
          (project_store ())
      in
      Alcotest.(check bool)
        ("identical program under " ^ Symtab.dky_name strategy)
        true
        (String.equal d1 (Mcc_codegen.Cunit.disassemble r.Project.program)))
    Symtab.all_concurrent

let test_project_module_error_propagates () =
  let bad =
    store ~name:"Main"
      ~defs:[ ("Lib", "DEFINITION MODULE Lib;\nPROCEDURE F(): INTEGER;\nEND Lib.\n") ]
      ~impls:
        [ ("Lib", "IMPLEMENTATION MODULE Lib;\nPROCEDURE F(): INTEGER;\nBEGIN RETURN nope END F;\nEND Lib.\n") ]
      "IMPLEMENTATION MODULE Main;\nIMPORT Lib;\nBEGIN\nEND Main.\n"
  in
  let r = Project.compile bad in
  Alcotest.(check bool) "error detected in imported module" false r.Project.ok;
  Alcotest.(check bool) "diag mentions the bad name" true
    (List.exists (fun d -> Tutil.contains ~sub:"nope" (Mcc_m2.Diag.to_string d)) r.Project.diags)

let test_stdlib_links_and_runs () =
  let main =
    modsrc ~name:"UseLib"
      ~imports:"IMPORT Strings, MathLib, InOut, Bits;
FROM MathLib IMPORT Gcd;"
      ~decls:"VAR s: BITSET;"
      ~body:
        {|InOut.WritePair(MathLib.Power(2, 10), Gcd(48, 36));
InOut.WriteSpaces(1);
InOut.WriteBool(Strings.Equal("abc", "abc"));
InOut.WriteSpaces(1);
WriteInt(Strings.Length("hello"));
InOut.WriteSpaces(1);
s := {3, 5, 9}; WriteInt(Bits.Count(s)); WriteChar('/'); WriteInt(Bits.Lowest(s));
InOut.WriteSpaces(1);
WriteInt(MathLib.SqrtI(90))|}
      ()
  in
  let store = M2lib.augment (store ~name:"UseLib" main) in
  let r = Project.compile store in
  if not r.Project.ok then
    Alcotest.failf "stdlib program failed:
%s"
      (String.concat "
" (List.map Mcc_m2.Diag.to_string r.Project.diags));
  let run = Mcc_vm.Vm.run r.Project.program in
  Alcotest.(check string) "output" "(1024, 12) TRUE 5 3/3 9" run.Mcc_vm.Vm.output

(* --- property: random generated programs compile identically --- *)

let prop_generated_equivalence =
  QCheck.Test.make ~name:"generated programs: conc == seq (all strategies)" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let shape =
        {
          Mcc_synth.Gen.seed;
          name = "Q";
          n_defs = 3;
          depth = 2;
          n_procs = 5;
          nested_per_proc = 1;
          stmts_lo = 4;
          stmts_hi = 10;
          module_vars = 3;
          def_size = 1;
          pad = 0;
          runnable = false;
        }
      in
      let st = Mcc_synth.Gen.generate shape in
      let seq = Seq_driver.compile st in
      seq.Seq_driver.ok
      && List.for_all
           (fun strategy ->
             let c =
               Driver.compile ~config:{ Driver.default_config with Driver.strategy; procs = 5 } st
             in
             c.Driver.ok && String.equal (dis seq.Seq_driver.program) (dis c.Driver.program))
           Symtab.all_concurrent)

let runnable_same_output seed =
  let shape =
    {
      Mcc_synth.Gen.seed;
      name = "R";
      n_defs = 0;
      depth = 1;
      n_procs = 4;
      nested_per_proc = 1;
      stmts_lo = 4;
      stmts_hi = 10;
      module_vars = 3;
      def_size = 1;
      pad = 0;
      runnable = true;
    }
  in
  let st = Mcc_synth.Gen.generate shape in
  let seq = Seq_driver.compile st in
  let conc = Driver.compile ~config:Driver.default_config st in
  let r1 = Mcc_vm.Vm.run seq.Seq_driver.program in
  let r2 = Mcc_vm.Vm.run conc.Driver.program in
  seq.Seq_driver.ok && conc.Driver.ok
  && r1.Mcc_vm.Vm.output = r2.Mcc_vm.Vm.output
  && r1.Mcc_vm.Vm.status = Mcc_vm.Vm.Finished

let prop_runnable_same_output =
  QCheck.Test.make ~name:"runnable programs: identical VM output via both compilers" ~count:6
    QCheck.(int_bound 10_000)
    runnable_same_output

(* seeds whose nested procedures once nested a FOR and a WHILE over
   their one shared counter, looping forever *)
let test_runnable_fixed_seeds () =
  List.iter
    (fun seed ->
      Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (runnable_same_output seed))
    [ 26; 27; 43; 48; 140 ]

(* stress: repeated domain-parallel compilations of suite programs must
   stay deterministic in output and never deadlock *)
let test_domain_stress () =
  let stores = [ Mcc_synth.Suite.program 1; Mcc_synth.Suite.program 7 ] in
  List.iter
    (fun st ->
      let reference = dis (Seq_driver.compile st).Seq_driver.program in
      List.iter
        (fun domains ->
          for _ = 1 to 3 do
            let d = Driver.compile_domains ~domains st in
            Alcotest.(check bool) "ok" true d.Driver.d_ok;
            Alcotest.(check bool) "identical output" true
              (String.equal reference (dis d.Driver.d_program))
          done)
        [ 2; 4 ])
    stores

let () =
  Alcotest.run "driver"
    [
      ( "equivalence",
        [
          Alcotest.test_case "all configurations match sequential" `Quick
            test_conc_matches_seq_all_configs;
          Alcotest.test_case "compiled program runs" `Quick test_compiled_program_runs;
          Alcotest.test_case "domain engine matches" `Quick test_domains_match_seq;
          Alcotest.test_case "a graph of another store is refused" `Quick
            test_domains_refuse_foreign_graph;
          Alcotest.test_case "domain engine stress" `Slow test_domain_stress;
          Tutil.qtest prop_generated_equivalence;
          Tutil.qtest prop_runnable_same_output;
          Alcotest.test_case "runnable programs: fixed seeds" `Quick test_runnable_fixed_seeds;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic_simulation;
          Alcotest.test_case "stream accounting" `Quick test_stream_accounting;
          Alcotest.test_case "more processors help" `Quick test_speedup_on_more_processors;
        ] );
      ( "project",
        [
          Alcotest.test_case "compiles and runs" `Quick test_project_compiles_and_runs;
          Alcotest.test_case "deterministic output" `Quick test_project_deterministic_output;
          Alcotest.test_case "module error propagates" `Quick test_project_module_error_propagates;
          Alcotest.test_case "standard library" `Quick test_stdlib_links_and_runs;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "diagnostics equal" `Quick test_diags_equal_seq_conc;
          Alcotest.test_case "domain diagnostics equal" `Quick test_domains_erroneous_match;
          Alcotest.test_case "import cycle deadlock" `Quick test_import_cycle_detected;
          Alcotest.test_case "missing interface" `Quick test_missing_interface_concurrent;
        ] );
    ]
