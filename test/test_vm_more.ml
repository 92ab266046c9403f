(* Deeper language-semantics coverage: the long tail of Modula-2+
   behaviours, each compiled and executed. *)

open Tutil

let check_out name expected ?defs ?input src =
  Alcotest.(check string) name expected (output ?defs ?input src)

let body ?(decls = "") b = modsrc ~decls ~body:b ()

let test_builtin_functions_runtime () =
  check_out "VAL with range check" "2"
    (body ~decls:"TYPE Small = [0..5];\nVAR s: Small;" "s := VAL(Small, 1 + 1); WriteInt(s)");
  check_out "MIN MAX of subrange" "3 9"
    (body ~decls:"TYPE R = [3..9];"
       "WriteInt(MIN(R)); WriteChar(' '); WriteInt(MAX(R))");
  check_out "MAX of CHAR ordinal" "255" (body "WriteInt(ORD(MAX(CHAR)))");
  check_out "SIZE is 1 slot" "1" (body "WriteInt(SIZE(INTEGER))");
  check_out "CAP chain" "A" (body "WriteChar(CAP(CHR(ORD('a'))))");
  check_out "math builtins" "2 1"
    (body
       "WriteInt(TRUNC(sqrt(4.0))); WriteChar(' '); WriteInt(TRUNC(exp(0.0)))")

let test_val_out_of_range_traps () =
  let _, status = run_seq (body ~decls:"TYPE Small = [0..5];\nVAR s: Small; x: INTEGER;" "x := 9; s := VAL(Small, x)") in
  match status with
  | Mcc_vm.Vm.Trap m -> Alcotest.(check bool) "range" true (contains ~sub:"range" m)
  | s -> Alcotest.failf "expected trap, got %s" (Mcc_vm.Vm.status_to_string s)

let test_nested_with_shadowing () =
  check_out "inner WITH shadows outer" "5 7"
    (body
       ~decls:
         {|TYPE R = RECORD v: INTEGER END;
VAR a, b: R;|}
       {|a.v := 0; b.v := 0;
WITH a DO
  v := 5;
  WITH b DO v := 7 END
END;
WriteInt(a.v); WriteChar(' '); WriteInt(b.v)|})

let test_with_over_pointer () =
  check_out "WITH p^" "21"
    (body
       ~decls:"TYPE R = RECORD v: INTEGER END;\nTYPE P = POINTER TO R;\nVAR p: P;"
       "NEW(p); WITH p^ DO v := 21 END; WriteInt(p^.v)")

let test_exit_innermost_loop () =
  check_out "EXIT leaves only the innermost LOOP" "3 3"
    (body ~decls:"VAR n, inner: INTEGER;"
       {|n := 0; inner := 0;
LOOP
  INC(n);
  LOOP INC(inner); EXIT END;
  IF n >= 3 THEN EXIT END
END;
WriteInt(n); WriteChar(' '); WriteInt(inner)|})

let test_nested_try_rethrow () =
  check_out "inner handler misses, outer catches" "outer done"
    (body ~decls:"VAR e1, e2: EXCEPTION;"
       {|TRY
  TRY
    RAISE e1
  EXCEPT e2:
    WriteString("wrong")
  END
EXCEPT e1:
  WriteString("outer")
END;
WriteString(" done")|});
  check_out "finally runs while propagating" "F caught"
    (body ~decls:"VAR e: EXCEPTION;"
       {|TRY
  TRY RAISE e FINALLY WriteString("F ") END
EXCEPT e:
  WriteString("caught")
END|})

let test_char_for_loop () =
  check_out "FOR over CHAR" "abcde"
    (body ~decls:"VAR c: CHAR;" "FOR c := 'a' TO 'e' DO WriteChar(c) END")

let test_char_case_labels () =
  check_out "CASE on CHAR" "vowel"
    (body ~decls:"VAR c: CHAR;"
       {|c := 'e';
CASE c OF 'a', 'e', 'i', 'o', 'u': WriteString("vowel") ELSE WriteString("other") END|})

let test_enum_case_labels () =
  check_out "CASE on enumeration" "go"
    (body
       ~decls:"TYPE Light = (red, yellow, green);\nVAR l: Light;"
       {|l := green;
CASE l OF red: WriteString("stop") | yellow: WriteString("wait") | green: WriteString("go") END|})

let test_var_open_array_mutation () =
  check_out "VAR open array writes through" "10 20 30"
    (modsrc
       ~decls:
         {|VAR d: ARRAY [0..2] OF INTEGER;
VAR i: INTEGER;
PROCEDURE Scale(VAR a: ARRAY OF INTEGER; k: INTEGER);
VAR i: INTEGER;
BEGIN
  FOR i := 0 TO HIGH(a) DO a[i] := a[i] * k END
END Scale;|}
       ~body:
         {|FOR i := 0 TO 2 DO d[i] := i + 1 END;
Scale(d, 10);
FOR i := 0 TO 2 DO WriteInt(d[i]); IF i < 2 THEN WriteChar(' ') END END|}
       ())

let test_proc_type_params () =
  check_out "procedure passed as parameter" "16"
    (modsrc
       ~decls:
         {|TYPE F = PROCEDURE (INTEGER): INTEGER;
PROCEDURE Twice(f: F; x: INTEGER): INTEGER;
BEGIN RETURN f(f(x)) END Twice;
PROCEDURE Double(x: INTEGER): INTEGER;
BEGIN RETURN x * 2 END Double;|}
       ~body:"WriteInt(Twice(Double, 4))" ())

let test_deep_structures () =
  check_out "array of records, deep copy" "1 99"
    (body
       ~decls:
         {|TYPE R = RECORD v: INTEGER END;
TYPE T = ARRAY [0..1] OF R;
VAR a, b: T;|}
       {|a[0].v := 1; a[1].v := 2;
b := a;
a[0].v := 99;
WriteInt(b[0].v); WriteChar(' '); WriteInt(a[0].v)|});
  check_out "record containing array" "6"
    (body
       ~decls:
         {|TYPE R = RECORD sum: INTEGER; data: ARRAY [0..2] OF INTEGER END;
VAR r: R; i: INTEGER;|}
       {|FOR i := 0 TO 2 DO r.data[i] := i + 1 END;
r.sum := 0;
FOR i := 0 TO 2 DO r.sum := r.sum + r.data[i] END;
WriteInt(r.sum)|})

let test_dispose () =
  let _, status =
    run_seq
      (body ~decls:"TYPE P = POINTER TO INTEGER;\nVAR p: P;"
         "NEW(p); p^ := 1; DISPOSE(p); p^ := 2")
  in
  match status with
  | Mcc_vm.Vm.Trap m -> Alcotest.(check bool) "dangling becomes NIL" true (contains ~sub:"NIL" m)
  | s -> Alcotest.failf "expected NIL trap, got %s" (Mcc_vm.Vm.status_to_string s)

let test_string_padding () =
  check_out "short string into char array, 0C padded" "ab"
    (body
       ~decls:"VAR s: ARRAY [0..4] OF CHAR;"
       {|s := "ab"; WriteString(s)|})

let test_subrange_for () =
  check_out "FOR over a subrange variable" "3 4 5"
    (body ~decls:"VAR i: [3..5];"
       "FOR i := 3 TO 5 DO WriteInt(i); IF i < 5 THEN WriteChar(' ') END END")

let test_pointer_identity () =
  check_out "pointer equality is identity" "same diff nil"
    (body
       ~decls:"TYPE P = POINTER TO INTEGER;\nVAR p, q: P;"
       {|NEW(p); q := p;
IF p = q THEN WriteString("same") END; WriteChar(' ');
NEW(q);
IF p # q THEN WriteString("diff") END; WriteChar(' ');
p := NIL;
IF p = NIL THEN WriteString("nil") END|})

let test_from_import_alias_runtime () =
  let defs =
    [ ("K", "DEFINITION MODULE K;\nCONST magic = 99;\nVAR slot: INTEGER;\nEND K.\n") ]
  in
  check_out "FROM-imported const and var" "99 100" ~defs
    (modsrc ~imports:"FROM K IMPORT magic, slot;" ~decls:""
       ~body:"slot := magic + 1; WriteInt(magic); WriteChar(' '); WriteInt(slot)" ())

let test_qualified_proc_var () =
  (* a procedure variable declared in an interface, assigned and called
     through the importing module *)
  let defs =
    [
      ( "H",
        "DEFINITION MODULE H;\nTYPE F = PROCEDURE (INTEGER): INTEGER;\nVAR hook: F;\nEND H.\n" );
    ]
  in
  check_out "hook through interface storage" "8" ~defs
    (modsrc ~imports:"IMPORT H;"
       ~decls:{|PROCEDURE Inc3(x: INTEGER): INTEGER;
BEGIN RETURN x + 3 END Inc3;|}
       ~body:"H.hook := Inc3; WriteInt(H.hook(5))" ())

let test_real_semantics () =
  check_out "real compare and negation" "lt 2.25"
    (body ~decls:"VAR a, b: REAL;"
       {|a := 1.5; b := -1.5;
IF b < a THEN WriteString("lt ") END;
WriteReal(a * a)|});
  check_out "float/trunc interplay" "7"
    (body ~decls:"VAR r: REAL; n: INTEGER;" "n := 3; r := FLOAT(n) * 2.5; WriteInt(TRUNC(r))")

let test_string_relations () =
  check_out "string ordering" "lt eq"
    (body
       {|IF "abc" < "abd" THEN WriteString("lt ") END;
IF "x" = "x" THEN WriteString("eq") END|})

let test_write_formats () =
  check_out "negative ints and reals" "-42 -0.5"
    (body ~decls:"VAR r: REAL;" {|WriteInt(-42); WriteChar(' '); r := -0.5; WriteReal(r)|})

let test_abs_on_subrange () =
  check_out "ABS preserves subrange values" "3"
    (body ~decls:"VAR s: [0..9];" "s := 3; WriteInt(ABS(s))")

let test_deep_call_chain () =
  (* recursion depth: interpreter frames are OCaml stack frames *)
  check_out "depth 2000 recursion" "2001000"
    (modsrc
       ~decls:
         {|PROCEDURE Sum(n: INTEGER): INTEGER;
BEGIN IF n = 0 THEN RETURN 0 ELSE RETURN n + Sum(n - 1) END END Sum;|}
       ~body:"WriteInt(Sum(2000))" ())

let test_module_body_statements_order () =
  (* the module body runs exactly once, top to bottom *)
  check_out "sequencing" "abc"
    (body "WriteChar('a'); WriteChar('b'); WriteChar('c')")

(* ------------------------------------------------------------------ *)
(* Pinned observations: every field of [Vm.result] for a fixed set of
   compiled programs.  A faster machine must leave each one unchanged. *)

let repo_file path = read_file (repo_path path)

let kernel_store name =
  Mcc_core.Source_store.make ~main_name:name
    ~main_src:(repo_file ("benchmark/kernels/" ^ name ^ ".mod"))
    ~defs:[] ()

let sieve_example_store () =
  Mcc_core.Source_store.make ~main_name:"Sieve" ~main_src:(repo_file "examples/Sieve.mod")
    ~defs:[ ("MathBits", repo_file "examples/MathBits.def") ]
    ~impls:[ ("MathBits", repo_file "examples/MathBits.mod") ]
    ()

(* name, store, ReadInt input, fuel; then the expected output, status,
   steps and store digest *)
let pinned () =
  let finished = "finished" in
  [
    ( ("Fib", kernel_store "Fib", [ 15; 1000 ], None),
      ("610\n", finished, 21707, "e3d551a81c99f393883322c1ee0444c2") );
    ( ("Sieve", kernel_store "Sieve", [ 3000 ], None),
      ("430 593823\n", finished, 156669, "04c6c9fb105dfa62a3c0be7df18a6d2a") );
    ( ("MatMul", kernel_store "MatMul", [ 6; 12345 ], None),
      ("621510598\n", finished, 9350, "c96bd0ef4021af2df2146eef30832180") );
    ( ("Lists", kernel_store "Lists", [ 300; 777 ], None),
      ("22647156 996\n", finished, 26796, "a581029cf2e4bb0b5eb72ed0894a8e38") );
    ( ("Raise", kernel_store "Raise", [ 300; 17 ], None),
      ("69044 206 60\n", finished, 11758, "a32d868b8fa06f042adfb4c9df083003") );
    ( ("Shapes", kernel_store "Shapes", [ 10; 4242 ], None),
      ("256830 36\n", finished, 39412, "76700d3657ee854d2ddd23bce6807908") );
    ( ("examples/Sieve", sieve_example_store (), [], None),
      ( "primes below 64: 18\neven count\nsquare of count: 324\n",
        finished,
        3390,
        "d68f9796046106fd2dfda415cdd3a790" ) );
    ( ("Sieve past Max", kernel_store "Sieve", [ 40001 ], None),
      ( "",
        "trap: array index 40001 out of range [0..40000]",
        520027,
        "b74a6672e0e0254102bbd3a42229bbc0" ) );
    ( ("Fib out of fuel", kernel_store "Fib", [ 25; 1000 ], Some 20_000),
      ( "",
        "trap: execution fuel exhausted (possible infinite loop)",
        20000,
        "1c6f5a3439906ff27a0272083f6db931" ) );
  ]

let test_pinned_observations () =
  List.iter
    (fun ((name, store, input, fuel), (output, status, steps, digest)) ->
      let r = Mcc_core.Project.compile store in
      if not r.Mcc_core.Project.ok then Alcotest.failf "%s does not compile" name;
      let res = Mcc_vm.Vm.run ?fuel ~input r.Mcc_core.Project.program in
      let field f = name ^ ": " ^ f in
      Alcotest.(check string) (field "output") output res.Mcc_vm.Vm.output;
      Alcotest.(check string) (field "status") status (Mcc_vm.Vm.status_to_string res.Mcc_vm.Vm.status);
      Alcotest.(check int) (field "steps") steps res.Mcc_vm.Vm.steps;
      Alcotest.(check string) (field "store_digest") digest res.Mcc_vm.Vm.store_digest)
    (pinned ())

(* The wider golden, test/vm_observations.expected: one line per run
   (status, steps, output digest, store digest) for the six kernels at
   two input sizes, the examples, every corpus program, and a fuel sweep
   over four kernels (fuel 1-60, then every 97th step to completion).
   On a mismatch the lines this build observed are written to
   vm_observations.actual in the test's working directory. *)

let observe name program ~input ~fuel =
  let r = Mcc_vm.Vm.run ~fuel ~input program in
  Printf.sprintf "%s [%s] fuel=%d | %s | steps=%d | out=%s | store=%s" name
    (String.concat "," (List.map string_of_int input))
    fuel
    (Mcc_vm.Vm.status_to_string r.Mcc_vm.Vm.status)
    r.Mcc_vm.Vm.steps
    (Digest.to_hex (Digest.string r.Mcc_vm.Vm.output))
    r.Mcc_vm.Vm.store_digest

let compiled name store =
  let r = Mcc_core.Project.compile store in
  if not r.Mcc_core.Project.ok then Alcotest.failf "%s does not compile" name;
  r.Mcc_core.Project.program

let observation_fuel = 50_000_000

(* kernel, small input (also swept over fuel), benchmark-sized input *)
let observed_kernels =
  [
    ("Fib", [ 15; 1000 ], [ 22; 4711 ], true);
    ("Sieve", [ 3000 ], [ 30150 ], false);
    ("MatMul", [ 6; 12345 ], [ 32; 987654321 ], false);
    ("Lists", [ 300; 777 ], [ 20100; 123456789 ], true);
    ("Raise", [ 300; 17 ], [ 20100; 555 ], true);
    ("Shapes", [ 10; 4242 ], [ 201; 1234567 ], true);
  ]

let observations () =
  let lines = ref [] in
  let add l = lines := l :: !lines in
  List.iter
    (fun (name, small, large, sweep) ->
      let program = compiled name (kernel_store name) in
      let full = observe name program ~fuel:observation_fuel in
      add (full ~input:small);
      add (full ~input:large);
      if sweep then begin
        let steps = (Mcc_vm.Vm.run ~input:small program).Mcc_vm.Vm.steps in
        let fuels =
          List.init 60 (fun i -> i + 1) @ List.init (steps / 97) (fun k -> 97 * (k + 1)) @ [ steps; steps + 1 ]
        in
        List.iter (fun fuel -> add (observe name program ~input:small ~fuel)) fuels
      end)
    observed_kernels;
  add (observe "examples/Sieve" (compiled "examples/Sieve" (sieve_example_store ())) ~input:[]
         ~fuel:observation_fuel);
  let dir = Lazy.force corpus_dir in
  List.iter
    (fun scenario ->
      let sdir = Filename.concat dir scenario in
      match Mcc_zoo.Manifest.load ~dir:sdir with
      | Error msg -> Alcotest.fail msg
      | Ok m ->
          let main_name = Option.get m.Mcc_zoo.Manifest.main in
          let store =
            Mcc_core.M2lib.augment (Mcc_core.Source_store.of_directory ~dir:sdir ~main_name)
          in
          add
            (observe ("corpus/" ^ scenario) (compiled scenario store) ~input:m.Mcc_zoo.Manifest.input
               ~fuel:observation_fuel))
    (Mcc_zoo.Zoo.scenario_dirs ~dir);
  List.rev !lines

let test_observation_golden () =
  let actual = observations () in
  let expected =
    List.filter (( <> ) "")
      (String.split_on_char '\n' (read_file (repo_path "test/vm_observations.expected")))
  in
  if actual <> expected then begin
    Out_channel.with_open_bin "vm_observations.actual" (fun oc ->
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

(* ------------------------------------------------------------------ *)
(* Stack discipline, on hand-assembled units: every activation owns only
   the operands it pushed, TRY records restore the right height, and
   unresolvable references trap only when executed. *)

module I = Mcc_codegen.Instr
module Vm = Mcc_vm.Vm

let int n = I.Const (Mcc_sem.Value.VInt n)
let bool b = I.Const (Mcc_sem.Value.VBool b)
let call key n = I.Call (key, n, I.LinkNone)
let write_int = I.Builtin (I.OWriteInt, 1)

(* The module "M": its body is the unit "M", its global frame holds one
   EXCEPTION ("M.e") in slot 0 and a scalar in slot 1.  Each unit is
   (key, params, slots, code). *)
let run_units units =
  let unit (key, nparams, nslots, code) =
    {
      Mcc_codegen.Cunit.u_key = key;
      u_nparams = nparams;
      u_nslots = nslots;
      u_locals = [];
      u_code = Array.of_list code;
    }
  in
  Vm.run
    (Mcc_codegen.Cunit.link ~entry:"M"
       ~frames:[ ("M", [ (0, Mcc_codegen.Tydesc.DExc "M.e") ], 2) ]
       (List.map unit units))

let expect ?steps name ~output ~status units =
  let r = run_units units in
  Alcotest.(check string) (name ^ ": status") status (Vm.status_to_string r.Vm.status);
  Alcotest.(check string) (name ^ ": output") output r.Vm.output;
  Option.iter (fun n -> Alcotest.(check int) (name ^ ": steps") n r.Vm.steps) steps

let underflow_in key = "trap: evaluation stack underflow in " ^ key

let test_underflow_names_unit () =
  expect "pop" ~output:"" ~status:(underflow_in "M") [ ("M", 0, 0, [ I.Pop; I.Ret ]) ];
  expect "callee cannot pop its caller's operands" ~output:""
    ~status:(underflow_in "M.P")
    [ ("M", 0, 0, [ int 1; int 2; call "M.P" 0; I.Ret ]); ("M.P", 0, 0, [ I.Pop; I.Ret ]) ];
  expect "call with too few arguments" ~output:"" ~status:(underflow_in "M")
    [ ("M", 0, 0, [ int 1; call "M.P" 2; I.Ret ]); ("M.P", 2, 2, [ I.Ret ]) ];
  expect "CallPtr with no callee value" ~output:"" ~status:(underflow_in "M")
    [ ("M", 0, 0, [ int 1; I.CallPtr 1; I.Ret ]) ];
  expect "dup on empty stack" ~output:"" ~status:"trap: dup on empty stack"
    [ ("M", 0, 0, [ int 1; call "M.P" 0; I.Ret ]); ("M.P", 0, 0, [ I.Dup; I.Ret ]) ];
  expect "range check on empty stack" ~output:"" ~status:"trap: range check on empty stack"
    [ ("M", 0, 0, [ int 1; call "M.P" 0; I.Ret ]); ("M.P", 0, 0, [ I.RangeCheck (0, 9); I.Ret ]) ]

(* [bad] sits behind a branch on [take]; untaken, the program prints 7. *)
let test_unresolved_traps_when_executed () =
  let guarded take bad =
    let skip = I.JumpIfNot (2 + List.length bad) in
    [ ("M", 0, 0, [ bool take; skip ] @ bad @ [ int 7; write_int; I.Ret ]) ]
  in
  List.iter
    (fun (name, bad, trap) ->
      expect (name ^ ", branch not taken") ~output:"7" ~status:"finished" (guarded false bad);
      expect (name ^ ", branch taken") ~output:"" ~status:("trap: " ^ trap) (guarded true bad))
    [
      ( "unknown frame",
        [ I.LoadGlobal ("Nowhere", 0) ],
        "reference to unknown module frame Nowhere" );
      ( "unknown frame store",
        [ int 1; I.StoreGlobal ("Nowhere", 0) ],
        "reference to unknown module frame Nowhere" );
      ( "missing callee",
        [ call "M.Missing" 0 ],
        "call to external procedure M.Missing (not compiled in this unit)" );
      ( "missing procedure value target",
        [ I.ProcConst "M.Gone"; I.CallPtr 0 ],
        "call through procedure value to external M.Gone" );
    ]

(* M -> A -> B -> C, each with operands pending, C raises M.e; the TRY in
   M catches it with exactly M's own operands below the exception. *)
let test_exception_unwinds_pending_operands () =
  expect "caught three calls deep" ~output:"1001 20" ~status:"finished"
    [
      ( "M",
        0,
        0,
        [
          int 1000;
          int 1;
          I.Try 8;
          int 5;
          call "M.A" 0;
          I.AddI;
          I.EndTry;
          I.CaseError;
          (* 8: handler, stack [1000; 1; exc] *)
          I.LoadGlobal ("M", 0);
          I.Cmp I.REq;
          I.JumpIfNot 7;
          I.AddI;
          write_int;
          I.Const (Mcc_sem.Value.VChar ' ');
          I.Builtin (I.OWriteChar, 1);
          int 10;
          call "M.Dbl" 1;
          write_int;
          I.Ret;
        ] );
      ("M.A", 0, 0, [ int 2; int 3; call "M.B" 1; I.AddI; I.RetVal ]);
      ("M.B", 1, 1, [ I.LoadLocal 0; int 4; call "M.C" 0; I.AddI; I.AddI; I.RetVal ]);
      ("M.C", 0, 0, [ int 9; int 8; I.LoadGlobal ("M", 0); I.RaiseI ]);
      ("M.Dbl", 1, 1, [ I.LoadLocal 0; I.LoadLocal 0; I.AddI; I.RetVal ]);
    ]

(* RETURN inside a TRY discards the callee's handler: a later RAISE in
   the caller reaches the caller's own TRY, or escapes without one. *)
let test_return_inside_try () =
  let p = ("M.P", 0, 0, [ I.Try 3; int 42; I.RetVal; I.Pop; int 0; I.RetVal ]) in
  expect "caller's handler" ~output:"42 7" ~status:"finished"
    [
      ( "M",
        0,
        0,
        [
          I.Try 8;
          call "M.P" 0;
          write_int;
          I.Const (Mcc_sem.Value.VChar ' ');
          I.Builtin (I.OWriteChar, 1);
          I.LoadGlobal ("M", 0);
          I.RaiseI;
          I.Ret;
          (* 8: handler *)
          I.Pop;
          int 7;
          write_int;
          I.Ret;
        ] );
      p;
    ];
  expect "no handler left" ~output:"42" ~status:"uncaught exception M.e"
    [ ("M", 0, 0, [ call "M.P" 0; write_int; I.LoadGlobal ("M", 0); I.RaiseI ]); p ]

(* Sum(n) = n + Sum(n - 1): one pending operand per frame, 10k frames. *)
let test_deep_recursion_grows_stack () =
  expect "recursion 10000 deep" ~output:"50005000" ~status:"finished"
    [
      ("M", 0, 0, [ int 10000; call "M.Sum" 1; write_int; I.Ret ]);
      ( "M.Sum",
        1,
        1,
        [
          I.LoadLocal 0;
          int 0;
          I.Cmp I.REq;
          I.JumpIfNot 6;
          int 0;
          I.RetVal;
          (* 6 *)
          I.LoadLocal 0;
          I.LoadLocal 0;
          int 1;
          I.SubI;
          call "M.Sum" 1;
          I.AddI;
          I.RetVal;
        ] );
    ]

(* A frame slot outside its frame is a trap node: it traps when its
   instruction runs, after burning that instruction's step, naming the
   unit and the slot.  Module M's frame has two slots; a unit with no
   slots still gets a one-slot frame. *)
let test_frame_slots_trap () =
  List.iter
    (fun (name, bad, trap) ->
      let guarded take =
        [ ("M", 0, 0, [ bool take; I.JumpIfNot (2 + List.length bad) ] @ bad @ [ int 7; write_int; I.Ret ]) ]
      in
      expect (name ^ ", branch not taken") ~output:"7" ~status:"finished" (guarded false);
      expect (name ^ ", branch taken") ~steps:(2 + List.length bad) ~output:""
        ~status:("trap: " ^ trap) (guarded true))
    [
      ("local load", [ I.LoadLocal 1 ], "local slot 1 outside the 1-slot frame of M");
      ("local store", [ int 1; I.StoreLocal 3 ], "local slot 3 outside the 1-slot frame of M");
      ("local address", [ I.LocalAddr 2 ], "local slot 2 outside the 1-slot frame of M");
      ( "global load",
        [ I.LoadGlobal ("M", 2) ],
        "global slot 2 outside the 2-slot frame of module M (in M)" );
      ( "global store",
        [ int 1; I.StoreGlobal ("M", 5) ],
        "global slot 5 outside the 2-slot frame of module M (in M)" );
      ( "global address",
        [ I.GlobalAddr ("M", -1) ],
        "global slot -1 outside the 2-slot frame of module M (in M)" );
    ];
  (* a procedure's own frame: two slots, a third is outside *)
  expect "procedure frame" ~steps:4 ~output:"" ~status:"trap: local slot 2 outside the 2-slot frame of M.P"
    [ ("M", 0, 0, [ int 5; call "M.P" 1; I.Ret ]); ("M.P", 1, 2, [ I.LoadLocal 1; I.LoadLocal 2; I.Ret ]) ]

(* Unbounded recursion traps at the activation depth limit (100,000)
   instead of growing the native stack until the fuel runs out: every
   activation runs one call, so the trap comes after 100,000 steps.
   Activations an exception unwinds leave the count: 150,000 calls that
   each raise to the caller's TRY run to the end. *)
let test_call_depth_trap () =
  expect "self call" ~steps:100_000 ~output:"" ~status:"trap: call depth exceeded"
    [ ("M", 0, 0, [ call "M.P" 0; I.Ret ]); ("M.P", 0, 0, [ call "M.P" 0; I.Ret ]) ];
  expect "mutual calls" ~steps:100_000 ~output:"" ~status:"trap: call depth exceeded"
    [
      ("M", 0, 0, [ call "M.P" 0; I.Ret ]);
      ("M.P", 0, 0, [ call "M.Q" 0; I.Ret ]);
      ("M.Q", 0, 0, [ call "M.P" 0; I.Ret ]);
    ];
  expect "unwound calls" ~output:"7" ~status:"finished"
    [
      ( "M",
        0,
        0,
        [
          int 0;
          I.StoreGlobal ("M", 1);
          (* 2: loop *)
          I.LoadGlobal ("M", 1);
          int 150_000;
          I.Cmp I.RGe;
          I.JumpIf 15;
          I.Try 9;
          call "M.R" 0;
          I.EndTry;
          (* 9: handler *)
          I.Pop;
          I.LoadGlobal ("M", 1);
          int 1;
          I.AddI;
          I.StoreGlobal ("M", 1);
          I.Jump 2;
          (* 15 *)
          int 7;
          write_int;
          I.Ret;
        ] );
      ("M.R", 0, 0, [ I.LoadGlobal ("M", 0); I.RaiseI ]);
    ]

(* Values that cross a block boundary travel on the shared stack; the
   rest are evaluated where their instructions stand.  Each case pins
   the step count too. *)

let write_char c = [ I.Const (Mcc_sem.Value.VChar c); I.Builtin (I.OWriteChar, 1) ]
let gload n = I.LoadGlobal ("M", n)

(* M.T and M.F write a mark, then return TRUE and FALSE. *)
let marked_bools =
  [
    ("M.T", 0, 0, write_char 't' @ [ bool true; I.RetVal ]);
    ("M.F", 0, 0, write_char 'f' @ [ bool false; I.RetVal ]);
  ]

let test_short_circuit_call () =
  (* [lhs; dup; j* 5; pop; call rhs; 5: jf 8; '1'; 8: ret] *)
  let cond lhs jump rhs =
    ( "M",
      0,
      0,
      [ bool lhs; I.Dup; jump 5; I.Pop; call rhs 0; I.JumpIfNot 8 ] @ write_char '1' @ [ I.Ret ] )
  in
  expect "TRUE AND F()" ~output:"f" ~status:"finished" ~steps:11
    (cond true (fun t -> I.JumpIfNot t) "M.F" :: marked_bools);
  expect "FALSE AND F() skips the call" ~output:"" ~status:"finished" ~steps:5
    (cond false (fun t -> I.JumpIfNot t) "M.F" :: marked_bools);
  expect "FALSE OR T()" ~output:"t1" ~status:"finished" ~steps:13
    (cond false (fun t -> I.JumpIf t) "M.T" :: marked_bools);
  expect "TRUE OR T() skips the call" ~output:"1" ~status:"finished" ~steps:7
    (cond true (fun t -> I.JumpIf t) "M.T" :: marked_bools)

let test_dup_across_jump () =
  expect "both copies cross" ~output:"10" ~status:"finished" ~steps:6
    [ ("M", 0, 0, [ int 5; I.Dup; I.Jump 3; I.AddI; write_int; I.Ret ]) ];
  expect "one copy consumed before the jump" ~output:"6" ~status:"finished" ~steps:8
    [ ("M", 0, 0, [ int 3; I.Dup; I.AddI; I.Dup; I.Jump 5; I.Pop; write_int; I.Ret ]) ]

let test_handler_value_after_jump () =
  expect "exception value compared after a jump" ~output:"1" ~status:"finished" ~steps:10
    [
      ( "M",
        0,
        0,
        [ I.Try 3; gload 0; I.RaiseI; I.Jump 4; gload 0; I.Cmp I.REq; I.JumpIfNot 9; int 1; write_int; I.Ret ] );
    ]

let test_range_check_previous_block () =
  let prog range = [ ("M", 0, 0, [ int 7; I.Jump 2; range; write_int; I.Ret ]) ] in
  expect "in range" ~output:"7" ~status:"finished" ~steps:5 (prog (I.RangeCheck (0, 9)));
  expect "out of range" ~output:"" ~status:"trap: value 7 out of range [0..5]" ~steps:3
    (prog (I.RangeCheck (0, 5)))

let test_call_ptr () =
  let add = ("M.Add", 2, 2, [ I.LoadLocal 0; I.LoadLocal 1; I.AddI; I.RetVal ]) in
  expect "procedure value called with two arguments" ~output:"42" ~status:"finished" ~steps:10
    [ ("M", 0, 0, [ I.ProcConst "M.Add"; int 20; int 22; I.CallPtr 2; write_int; I.Ret ]); add ];
  expect "a pending value below the callee" ~output:"142" ~status:"finished" ~steps:12
    [ ("M", 0, 0, [ int 100; I.ProcConst "M.Add"; int 20; int 22; I.CallPtr 2; I.AddI; write_int; I.Ret ]); add ]

let test_mid_expression_underflow () =
  expect "second addi" ~output:"" ~status:(underflow_in "M") ~steps:4
    [ ("M", 0, 0, [ int 1; int 2; I.AddI; I.AddI; write_int; I.Ret ]) ];
  expect "after an effect" ~output:"3" ~status:(underflow_in "M") ~steps:6
    [ ("M", 0, 0, [ int 1; int 2; I.AddI; write_int; int 4; I.SubI; I.Ret ]) ];
  expect "the upper operand is checked first" ~output:""
    ~status:"trap: integer value expected, found REAL" ~steps:2
    [ ("M", 0, 0, [ I.Const (Mcc_sem.Value.VReal 1.5); I.AddI; I.Ret ]) ];
  expect "the caller's operand is out of reach" ~output:"" ~status:(underflow_in "M.P") ~steps:4
    [ ("M", 0, 0, [ int 1; call "M.P" 0; I.Ret ]); ("M.P", 0, 0, [ int 5; I.MulI; I.RetVal ]) ];
  expect "both operands out of reach" ~output:"" ~status:(underflow_in "M.P") ~steps:3
    [ ("M", 0, 0, [ int 1; call "M.P" 0; I.Ret ]); ("M.P", 0, 0, [ I.SubI; I.RetVal ]) ]

(* M.Set assigns x := 100 and returns 10; x + Set() must add the old x. *)
let test_load_before_call () =
  expect "old x" ~output:"11" ~status:"finished" ~steps:11
    [
      ("M", 0, 0, [ int 1; I.StoreGlobal ("M", 1); gload 1; call "M.Set" 0; I.AddI; write_int; I.Ret ]);
      ("M.Set", 0, 0, [ int 100; I.StoreGlobal ("M", 1); int 10; I.RetVal ]);
    ]

(* x + (x := 100; x) with x = 1 reads 101: the first load is taken
   before the store, whether x is a global, a local or reached through
   its location. *)
let test_load_before_store () =
  let expect_101 name steps code =
    expect name ~output:"101" ~status:"finished" ~steps [ ("M", 0, 1, code @ [ I.AddI; write_int; I.Ret ]) ]
  in
  let gstore = I.StoreGlobal ("M", 1) and gaddr = I.GlobalAddr ("M", 1) in
  expect_101 "global" 9 [ int 1; gstore; gload 1; int 100; gstore; gload 1 ];
  expect_101 "local" 9 [ int 1; I.StoreLocal 0; I.LoadLocal 0; int 100; I.StoreLocal 0; I.LoadLocal 0 ];
  expect_101 "through a location" 12
    [ int 1; gstore; gaddr; I.LoadInd; gaddr; int 100; I.StoreInd; gaddr; I.LoadInd ]

let () =
  Alcotest.run "vm_more"
    [
      ( "builtins",
        [
          Alcotest.test_case "runtime functions" `Quick test_builtin_functions_runtime;
          Alcotest.test_case "VAL range trap" `Quick test_val_out_of_range_traps;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "nested WITH" `Quick test_nested_with_shadowing;
          Alcotest.test_case "WITH over pointer" `Quick test_with_over_pointer;
          Alcotest.test_case "FROM-import at runtime" `Quick test_from_import_alias_runtime;
          Alcotest.test_case "interface procedure variables" `Quick test_qualified_proc_var;
        ] );
      ( "control",
        [
          Alcotest.test_case "EXIT innermost" `Quick test_exit_innermost_loop;
          Alcotest.test_case "nested TRY" `Quick test_nested_try_rethrow;
          Alcotest.test_case "FOR over CHAR" `Quick test_char_for_loop;
          Alcotest.test_case "CASE on CHAR" `Quick test_char_case_labels;
          Alcotest.test_case "CASE on enumeration" `Quick test_enum_case_labels;
          Alcotest.test_case "FOR over subrange" `Quick test_subrange_for;
        ] );
      ( "data",
        [
          Alcotest.test_case "VAR open arrays" `Quick test_var_open_array_mutation;
          Alcotest.test_case "procedure parameters" `Quick test_proc_type_params;
          Alcotest.test_case "deep structures" `Quick test_deep_structures;
          Alcotest.test_case "dispose" `Quick test_dispose;
          Alcotest.test_case "string padding" `Quick test_string_padding;
          Alcotest.test_case "pointer identity" `Quick test_pointer_identity;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "reals" `Quick test_real_semantics;
          Alcotest.test_case "string relations" `Quick test_string_relations;
          Alcotest.test_case "write formats" `Quick test_write_formats;
          Alcotest.test_case "ABS on subrange" `Quick test_abs_on_subrange;
          Alcotest.test_case "deep recursion" `Quick test_deep_call_chain;
          Alcotest.test_case "body sequencing" `Quick test_module_body_statements_order;
        ] );
      ( "observations",
        [
          Alcotest.test_case "pinned programs" `Quick test_pinned_observations;
          Alcotest.test_case "observation golden" `Quick test_observation_golden;
        ] );
      ( "stack discipline",
        [
          Alcotest.test_case "underflow names the unit" `Quick test_underflow_names_unit;
          Alcotest.test_case "unresolved traps when executed" `Quick
            test_unresolved_traps_when_executed;
          Alcotest.test_case "exception unwinds pending operands" `Quick
            test_exception_unwinds_pending_operands;
          Alcotest.test_case "RETURN inside TRY" `Quick test_return_inside_try;
          Alcotest.test_case "deep recursion grows the stack" `Quick test_deep_recursion_grows_stack;
          Alcotest.test_case "frame slots out of range trap" `Quick test_frame_slots_trap;
          Alcotest.test_case "call depth limit traps" `Quick test_call_depth_trap;
          Alcotest.test_case "AND/OR with a call on the right" `Quick test_short_circuit_call;
          Alcotest.test_case "dup across a jump" `Quick test_dup_across_jump;
          Alcotest.test_case "handler value used after a jump" `Quick test_handler_value_after_jump;
          Alcotest.test_case "range check on the previous block's value" `Quick
            test_range_check_previous_block;
          Alcotest.test_case "call through a procedure value" `Quick test_call_ptr;
          Alcotest.test_case "mid-expression underflow" `Quick test_mid_expression_underflow;
          Alcotest.test_case "load before a call that stores" `Quick test_load_before_call;
          Alcotest.test_case "load before a store" `Quick test_load_before_store;
        ] );
    ]
