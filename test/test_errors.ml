(* Diagnostics coverage: one test per family of compiler error, checking
   that each fires with its intended message and a sensible location,
   and that compilation always terminates cleanly on bad input. *)

open Tutil

let body ?(decls = "") b = modsrc ~decls ~body:b ()

let e = expect_error

(* --- module structure --- *)

let test_module_structure () =
  e "IMPLEMENTATION MODULE A;\nEND B.\n" "ends with name";
  e "IMPLEMENTATION MODULE Wrong;\nEND Wrong.\n" ~name:"T" "found where";
  e (modsrc ~imports:"IMPORT Missing;" ~decls:"" ~body:"" ()) "cannot find interface";
  e
    ~defs:[ ("L", "DEFINITION MODULE Other;\nEND Other.\n") ]
    (modsrc ~imports:"IMPORT L;" ~decls:"" ~body:"" ())
    "found where L was expected"

let test_import_errors () =
  let defs = [ ("L", "DEFINITION MODULE L;\nCONST k = 1;\nEND L.\n") ] in
  e ~defs (modsrc ~imports:"FROM L IMPORT ghost;" ~decls:"" ~body:"" ()) "not exported";
  e ~defs (modsrc ~imports:"IMPORT L;" ~decls:"" ~body:"L.ghost := 1" ()) "not exported";
  e (body "NotAModule.x := 1") "undeclared identifier";
  e ~defs
    (modsrc ~imports:"IMPORT L;" ~decls:"VAR v: INTEGER;" ~body:"v.k := 1" ())
    "not a record"

(* --- declarations --- *)

let test_declaration_errors () =
  e (body ~decls:"VAR x: INTEGER; x: CHAR;" "") "already declared";
  e (body ~decls:"VAR ABS: INTEGER;" "") "builtin name";
  e (body ~decls:"VAR x: NoType;" "") "undeclared identifier";
  e (body ~decls:"VAR x: WriteLn;" "") "not a type";
  e (body ~decls:"CONST c = missing;" "") "undeclared identifier";
  e (body ~decls:"VAR v: INTEGER;\nCONST c = v;" "") "not a constant";
  e (body ~decls:"CONST c = 1 DIV 0;" "") "division by zero";
  e (body ~decls:"CONST c = 5 MOD 0;" "") "MOD by zero";
  e (body ~decls:"CONST c = 1 + TRUE;" "") "invalid operands";
  e (body ~decls:"CONST c = 1.0 DIV 2.0;" "") "invalid operands";
  e (body ~decls:"TYPE S = [9..3];" "") "empty subrange";
  e (body ~decls:"TYPE S = ['a'..5];" "") "incompatible types";
  e (body ~decls:"TYPE A = ARRAY [0..2] OF INTEGER;\nTYPE B = ARRAY A OF CHAR;" "")
    "must be a bounded ordinal";
  e (body ~decls:"TYPE R = RECORD f: INTEGER; f: CHAR END;" "") "duplicate record field";
  e (body ~decls:"TYPE S = SET OF INTEGER;" "") "too large";
  e (body ~decls:"TYPE S = SET OF REAL;" "") "ordinal";
  e (body ~decls:"TYPE P = POINTER TO Nowhere;" "") "undeclared identifier";
  e (body ~decls:"TYPE Opaque;" "") "definition module"

let test_heading_errors () =
  let defs = [ ("T", "DEFINITION MODULE T;\nPROCEDURE f(): CHAR;\nEND T.\n") ] in
  e ~defs "IMPLEMENTATION MODULE T;\nPROCEDURE f(): INTEGER;\nBEGIN RETURN 1 END f;\nEND T.\n"
    "does not match";
  e
    (body ~decls:"PROCEDURE P(x: NoSuch); BEGIN END P;" "")
    "undeclared identifier";
  e (body ~decls:"PROCEDURE P; BEGIN END Q;" "") "ends with name"

(* --- statements --- *)

let test_statement_errors () =
  e (body ~decls:"VAR x: INTEGER;" "x := TRUE") "cannot assign";
  e (body ~decls:"VAR r: REAL;" "r := 1") "cannot assign";
  e (body ~decls:"VAR x: INTEGER;" "5 := x") "expected a statement";
  e (body ~decls:"CONST c = 1;" "c := 2") "cannot be assigned";
  e (body ~decls:"VAR x: INTEGER;" "IF x THEN END") "BOOLEAN";
  e (body ~decls:"VAR x: INTEGER;" "WHILE x DO END") "BOOLEAN";
  e (body ~decls:"VAR x: INTEGER;" "REPEAT UNTIL x") "BOOLEAN";
  e (body ~decls:"VAR r: REAL;" "CASE r OF END") "ordinal";
  e (body ~decls:"VAR x: INTEGER;" "CASE x OF 1: x := 1 | 1: x := 2 END") "duplicate case label";
  e (body ~decls:"VAR x: INTEGER;" "CASE x OF 'a': x := 1 END") "does not match";
  e (body "EXIT") "only legal inside LOOP";
  e (body ~decls:"VAR r: REAL;" "FOR r := 0.0 TO 1.0 DO END") "ordinal";
  e (body ~decls:"VAR i: INTEGER;" "FOR i := 0 TO 9 BY 0 DO END") "cannot be zero";
  e (body ~decls:"VAR i: INTEGER;" "FOR i := 'a' TO 'z' DO END") "wrong type";
  e (body ~decls:"VAR x: INTEGER;" "WITH x DO END") "record designator";
  e (body ~decls:"VAR x: INTEGER;" "RETURN x") "only legal in a function";
  e
    (modsrc ~decls:"PROCEDURE F(): INTEGER;\nBEGIN RETURN END F;" ~body:"" ())
    "must RETURN a value";
  e
    (modsrc ~decls:"PROCEDURE F(): INTEGER;\nBEGIN RETURN TRUE END F;" ~body:"" ())
    "does not match result type";
  e (body ~decls:"VAR x: INTEGER;" "RAISE x") "EXCEPTION";
  e (body ~decls:"VAR e: EXCEPTION; x: INTEGER;" "TRY x := 1 EXCEPT x: x := 2 END")
    "EXCEPTION";
  e (body ~decls:"VAR x: INTEGER;" "LOCK x DO END") "MUTEX"

let test_expression_errors () =
  e (body ~decls:"VAR x: INTEGER;" "x := missing + 1") "undeclared identifier";
  e (body ~decls:"VAR c: CHAR;" "c := c + 'a'") "do not support";
  e (body ~decls:"VAR r: REAL; x: INTEGER;" "r := r + FLOAT(x); x := x + r") "do not support";
  e (body ~decls:"VAR b: BOOLEAN; x: INTEGER;" "b := x AND b") "BOOLEAN";
  e (body ~decls:"VAR b: BOOLEAN; x: INTEGER;" "b := NOT x") "BOOLEAN";
  e (body ~decls:"VAR b: BOOLEAN; x: INTEGER;" "b := x < TRUE") "cannot compare";
  e (body ~decls:"VAR p: POINTER TO INTEGER;" "IF p < NIL THEN END") "compare with = and #";
  e (body ~decls:"VAR x: INTEGER;" "x := x^") "cannot be dereferenced";
  e (body ~decls:"VAR x: INTEGER;" "x := x[1]") "not an array";
  e (body ~decls:"VAR x: INTEGER;" "x := x.f") "not a record";
  e (body ~decls:"TYPE R = RECORD a: INTEGER END;\nVAR r: R; x: INTEGER;" "x := r.nope")
    "has no field";
  e (body ~decls:"VAR a: ARRAY [0..3] OF INTEGER; x: INTEGER;" "x := a['c']")
    "incompatible";
  e (body ~decls:"VAR s: BITSET; x: INTEGER;" "x := 1 IN s") "cannot assign";
  e (body ~decls:"VAR x: INTEGER;" "x := INTEGER") "cannot be used as a value";
  e (body ~decls:"VAR x: INTEGER;" "x := WriteLn") "cannot be used as a value"

let test_call_errors () =
  e
    (modsrc ~decls:"PROCEDURE P(a: INTEGER); BEGIN END P;" ~body:"P()" ())
    "wrong number of arguments";
  e
    (modsrc ~decls:"PROCEDURE P(a: INTEGER); BEGIN END P;" ~body:"P(1, 2)" ())
    "wrong number of arguments";
  e
    (modsrc ~decls:"PROCEDURE P(a: INTEGER); BEGIN END P;" ~body:"P(TRUE)" ())
    "does not match";
  e
    (modsrc ~decls:"PROCEDURE P(VAR a: INTEGER); BEGIN END P;" ~body:"P(3 + 4)" ())
    "designator";
  e
    (modsrc ~decls:"PROCEDURE P(VAR a: INTEGER); BEGIN END P;\nVAR c: CHAR;" ~body:"P(c)" ())
    "does not match";
  e
    (modsrc ~decls:"PROCEDURE F(): INTEGER; BEGIN RETURN 1 END F;" ~body:"F()" ())
    "must be used";
  e (modsrc ~decls:"PROCEDURE P; BEGIN END P;\nVAR x: INTEGER;" ~body:"x := P()" ())
    "no result";
  e (body ~decls:"VAR x: INTEGER;" "x := 1; x(2)") "not callable";
  e (body "INC(5)") "designator";
  e (body ~decls:"VAR b: BOOLEAN;" "b := ABS(b)") "numeric";
  e (body ~decls:"VAR x: INTEGER;" "x := HIGH(x)") "array";
  e (body ~decls:"VAR x: INTEGER;" "NEW(x)") "pointer";
  e (body "WriteLn(1)") "0 argument"

(* --- diagnostic hygiene --- *)

let test_locations_reported () =
  let r = compile_seq "IMPLEMENTATION MODULE T;\nVAR x: INTEGER;\nBEGIN\n  x := nope\nEND T.\n" in
  match r.Mcc_core.Seq_driver.diags with
  | [ d ] ->
      Alcotest.(check string) "file" "T.mod" d.Mcc_m2.Diag.file;
      Alcotest.(check int) "line" 4 d.Mcc_m2.Diag.loc.Mcc_m2.Loc.line
  | l -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length l)

let test_many_errors_all_reported () =
  let decls = String.concat "\n" (List.init 10 (fun i -> Printf.sprintf "VAR v%d: Missing%d;" i i)) in
  let r = compile_seq (body ~decls "") in
  Alcotest.(check int) "one error per bad declaration" 10
    (List.length r.Mcc_core.Seq_driver.diags)

let test_errors_do_not_hang_concurrent () =
  (* every erroneous program still terminates under every strategy *)
  let bad = body ~decls:"VAR x: Missing;\nPROCEDURE P(y: Nope); BEGIN y := z END P;" "x := w" in
  List.iter
    (fun strategy ->
      let c =
        Mcc_core.Driver.compile
          ~config:{ Mcc_core.Driver.default_config with Mcc_core.Driver.strategy }
          (store ~name:"T" bad)
      in
      Alcotest.(check bool)
        ("terminates under " ^ Mcc_sem.Symtab.dky_name strategy)
        true
        (match c.Mcc_core.Driver.sim.Mcc_sched.Des_engine.outcome with
        | Mcc_sched.Des_engine.Completed -> true
        | _ -> false))
    Mcc_sem.Symtab.all_concurrent

(* A redeclared procedure is reported once and emits no second code
   unit: every driver links [Dup] and the first [Dup.P] only. *)
let test_duplicate_procedure () =
  let src = "MODULE Dup; PROCEDURE P; BEGIN END P; PROCEDURE P; BEGIN END P; BEGIN P END Dup." in
  let st = store ~name:"Dup" src in
  let check what ~diags program =
    let msgs = diag_strings diags in
    Alcotest.(check int) (what ^ ": one diagnostic") 1 (List.length msgs);
    Alcotest.(check bool)
      (what ^ ": P is already declared") true
      (contains ~sub:"P is already declared" (List.hd msgs));
    Alcotest.(check (list string)) (what ^ ": units") [ "Dup"; "Dup.P" ]
      (Mcc_codegen.Cunit.unit_keys program)
  in
  let seq = Mcc_core.Seq_driver.compile st in
  check "seq" ~diags:seq.Mcc_core.Seq_driver.diags seq.Mcc_core.Seq_driver.program;
  List.iter
    (fun procs ->
      List.iter
        (fun heading ->
          let c =
            Mcc_core.Driver.compile
              ~config:{ Mcc_core.Driver.default_config with Mcc_core.Driver.procs; heading }
              st
          in
          check (Printf.sprintf "driver %d procs" procs) ~diags:c.Mcc_core.Driver.diags
            c.Mcc_core.Driver.program;
          Alcotest.(check string) "same code as seq" (dis seq.Mcc_core.Seq_driver.program)
            (dis c.Mcc_core.Driver.program))
        [ Mcc_core.Driver.Alt1; Mcc_core.Driver.Alt3 ])
    [ 1; 8 ];
  let d = Mcc_core.Driver.compile_domains ~domains:1 st in
  check "domains" ~diags:d.Mcc_core.Driver.d_diags d.Mcc_core.Driver.d_program

(* The same with nested procedures: the redeclared P's nested Q is
   dropped along with it, its new nested R is kept. *)
let test_duplicate_nested_procedure () =
  let src =
    "MODULE Dup;\nPROCEDURE P; PROCEDURE Q; BEGIN END Q; BEGIN Q END P;\n\
     PROCEDURE P; PROCEDURE Q; BEGIN END Q; PROCEDURE R; BEGIN END R; BEGIN R END P;\n\
     BEGIN P END Dup.\n"
  in
  let st = store ~name:"Dup" src in
  let seq = Mcc_core.Seq_driver.compile st in
  let c = Mcc_core.Driver.compile st in
  Alcotest.(check (list string)) "seq units" [ "Dup"; "Dup.P"; "Dup.P.Q"; "Dup.P.R" ]
    (Mcc_codegen.Cunit.unit_keys seq.Mcc_core.Seq_driver.program);
  Alcotest.(check string) "driver code == seq code" (dis seq.Mcc_core.Seq_driver.program)
    (dis c.Mcc_core.Driver.program);
  Alcotest.(check (list string)) "same diagnostics" (diag_strings seq.Mcc_core.Seq_driver.diags)
    (diag_strings c.Mcc_core.Driver.diags)

(* Hostile bytes: a suite program with a few bytes flipped never makes
   either driver raise or report a failed compiler task. *)
let prop_flipped_bytes =
  let base = Mcc_synth.Suite.program 2 in
  let files =
    ("main", Mcc_core.Source_store.main_src base)
    :: List.map
         (fun d -> (d, Option.get (Mcc_core.Source_store.def_src base d)))
         (Mcc_core.Source_store.def_names base)
  in
  QCheck.Test.make ~name:"byte-flipped suite sources: no escaped exception or failed task"
    ~count:30
    QCheck.(list_of_size Gen.(1 -- 4) (triple small_nat int (int_range 1 255)))
    (fun flips ->
      let files = Array.of_list (List.map (fun (n, s) -> (n, Bytes.of_string s)) files) in
      List.iter
        (fun (f, pos, mask) ->
          let _, b = files.(f mod Array.length files) in
          let i = abs pos mod Bytes.length b in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
        flips;
      let files = Array.to_list (Array.map (fun (n, b) -> (n, Bytes.to_string b)) files) in
      let st =
        Mcc_core.Source_store.make
          ~main_name:(Mcc_core.Source_store.main_name base)
          ~main_src:(List.assoc "main" files)
          ~defs:(List.filter (fun (n, _) -> n <> "main") files)
          ()
      in
      let no_failed_task diags =
        not (List.exists (contains ~sub:"compiler task failed") (diag_strings diags))
      in
      no_failed_task (Mcc_core.Seq_driver.compile st).Mcc_core.Seq_driver.diags
      && no_failed_task (Mcc_core.Driver.compile st).Mcc_core.Driver.diags)

(* ------------------------------------------------------------------ *)
(* CLI argument validation (Cliopt): every failure mode is an error
   that names the offending value or file — no silent clamping. *)

let expect_err what msg = function
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error e ->
      if not (Tutil.contains ~sub:msg e) then
        Alcotest.failf "%s: error %S does not mention %S" what e msg

let test_cli_procs () =
  (match Mcc_core.Cliopt.parse_procs 8 with
  | Ok 8 -> ()
  | _ -> Alcotest.fail "8 procs is valid");
  expect_err "procs 0" "invalid processor count 0" (Mcc_core.Cliopt.parse_procs 0);
  expect_err "procs 65" "invalid processor count 65" (Mcc_core.Cliopt.parse_procs 65);
  expect_err "procs -3" "invalid processor count -3" (Mcc_core.Cliopt.parse_procs (-3));
  expect_err "empty procs list" "empty" (Mcc_core.Cliopt.parse_procs_list []);
  expect_err "bad list entry" "invalid processor count 99"
    (Mcc_core.Cliopt.parse_procs_list [ 1; 99; 4 ])

let test_cli_heading () =
  (match Mcc_core.Cliopt.parse_heading 1 with
  | Ok Mcc_core.Driver.Alt1 -> ()
  | _ -> Alcotest.fail "heading 1 is Alt1");
  (match Mcc_core.Cliopt.parse_heading 3 with
  | Ok Mcc_core.Driver.Alt3 -> ()
  | _ -> Alcotest.fail "heading 3 is Alt3");
  expect_err "heading 2" "invalid heading alternative 2" (Mcc_core.Cliopt.parse_heading 2);
  expect_err "heading 0" "invalid heading alternative 0" (Mcc_core.Cliopt.parse_heading 0)

let test_cli_strategy () =
  (match Mcc_core.Cliopt.parse_strategy "skeptical" with
  | Ok Mcc_sem.Symtab.Skeptical -> ()
  | _ -> Alcotest.fail "skeptical parses");
  expect_err "unknown strategy" "unknown strategy \"eager\""
    (Mcc_core.Cliopt.parse_strategy "eager")

let test_cli_matrix () =
  (match Mcc_core.Cliopt.parse_matrix "all:1,2,8" with
  | Ok (ss, ps) ->
      Alcotest.(check int) "all strategies" 4 (List.length ss);
      Alcotest.(check (list int)) "procs" [ 1; 2; 8 ] ps
  | Error e -> Alcotest.failf "all:1,2,8 should parse: %s" e);
  (match Mcc_core.Cliopt.parse_matrix "skeptical,optimistic:4" with
  | Ok (ss, ps) ->
      Alcotest.(check int) "two strategies" 2 (List.length ss);
      Alcotest.(check (list int)) "procs" [ 4 ] ps
  | Error e -> Alcotest.failf "pair matrix should parse: %s" e);
  expect_err "no colon" "expected STRATEGIES:PROCS" (Mcc_core.Cliopt.parse_matrix "garbage");
  expect_err "bad strategy" "unknown strategy" (Mcc_core.Cliopt.parse_matrix "eager:1");
  expect_err "bad procs" "invalid processor count" (Mcc_core.Cliopt.parse_matrix "all:1,zap");
  expect_err "out-of-range procs" "invalid processor count 99"
    (Mcc_core.Cliopt.parse_matrix "all:99");
  expect_err "empty procs" "no processor counts" (Mcc_core.Cliopt.parse_matrix "all:")

let test_cli_counts () =
  (match Mcc_core.Cliopt.parse_counts "100,1000,10000" with
  | Ok ns -> Alcotest.(check (list int)) "sweep parses in order" [ 100; 1000; 10000 ] ns
  | Error e -> Alcotest.failf "100,1000,10000 should parse: %s" e);
  (match Mcc_core.Cliopt.parse_counts "7" with
  | Ok ns -> Alcotest.(check (list int)) "single count" [ 7 ] ns
  | Error e -> Alcotest.failf "single count should parse: %s" e);
  expect_err "empty spec" "expected a comma-separated list" (Mcc_core.Cliopt.parse_counts "");
  expect_err "only commas" "expected a comma-separated list" (Mcc_core.Cliopt.parse_counts ",,");
  expect_err "zero count" "invalid count 0" (Mcc_core.Cliopt.parse_counts "100,0,300");
  expect_err "negative count" "invalid count -5" (Mcc_core.Cliopt.parse_counts "-5");
  expect_err "non-numeric" "invalid count \"ten\"" (Mcc_core.Cliopt.parse_counts "10,ten")

let test_cli_load_module () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "mcc-no-such-module.mod" in
  expect_err "missing file names the path" missing (Mcc_core.Cliopt.load_module missing);
  expect_err "wrong extension names the file" "notamodule.txt"
    (Mcc_core.Cliopt.load_module "notamodule.txt");
  (* a real module loads *)
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir "CliOk.mod" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "IMPLEMENTATION MODULE CliOk;\nBEGIN\nEND CliOk.\n");
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Mcc_core.Cliopt.load_module path with
      | Ok store -> Alcotest.(check string) "main name" "CliOk" (Mcc_core.Source_store.main_name store)
      | Error e -> Alcotest.failf "valid module failed to load: %s" e)

let () =
  Alcotest.run "errors"
    [
      ( "structure",
        [
          Alcotest.test_case "module structure" `Quick test_module_structure;
          Alcotest.test_case "imports" `Quick test_import_errors;
        ] );
      ( "declarations",
        [
          Alcotest.test_case "declarations" `Quick test_declaration_errors;
          Alcotest.test_case "headings" `Quick test_heading_errors;
        ] );
      ( "statements",
        [
          Alcotest.test_case "statements" `Quick test_statement_errors;
          Alcotest.test_case "expressions" `Quick test_expression_errors;
          Alcotest.test_case "calls" `Quick test_call_errors;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "locations" `Quick test_locations_reported;
          Alcotest.test_case "all errors reported" `Quick test_many_errors_all_reported;
          Alcotest.test_case "no hangs on errors" `Quick test_errors_do_not_hang_concurrent;
          Alcotest.test_case "duplicate procedure" `Quick test_duplicate_procedure;
          Alcotest.test_case "duplicate nested procedure" `Quick test_duplicate_nested_procedure;
          qtest prop_flipped_bytes;
        ] );
      ( "cli",
        [
          Alcotest.test_case "procs" `Quick test_cli_procs;
          Alcotest.test_case "heading" `Quick test_cli_heading;
          Alcotest.test_case "strategy" `Quick test_cli_strategy;
          Alcotest.test_case "matrix" `Quick test_cli_matrix;
          Alcotest.test_case "counts" `Quick test_cli_counts;
          Alcotest.test_case "load module" `Quick test_cli_load_module;
        ] );
    ]
