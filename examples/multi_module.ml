(* Whole-program compilation: several modules, each compiled by the
   concurrent compiler, linked into one executable with Modula-2
   initialization order — cross-module calls run for real.

     dune exec examples/multi_module.exe *)

open Mcc_core

let stack_def =
  {|DEFINITION MODULE Stack;
CONST Capacity = 16;
PROCEDURE Push(v: INTEGER);
PROCEDURE Pop(): INTEGER;
PROCEDURE Depth(): INTEGER;
END Stack.
|}

let stack_mod =
  {|IMPLEMENTATION MODULE Stack;

VAR items: ARRAY [0..15] OF INTEGER;
VAR top: INTEGER;

PROCEDURE Push(v: INTEGER);
BEGIN
  items[top] := v; INC(top)
END Push;

PROCEDURE Pop(): INTEGER;
BEGIN
  DEC(top); RETURN items[top]
END Pop;

PROCEDURE Depth(): INTEGER;
BEGIN
  RETURN top
END Depth;

BEGIN
  top := 0
END Stack.
|}

let calc_def =
  {|DEFINITION MODULE Calc;
PROCEDURE Eval(a, b: INTEGER; op: CHAR): INTEGER;
END Calc.
|}

let calc_mod =
  {|IMPLEMENTATION MODULE Calc;
IMPORT Stack;

PROCEDURE Eval(a, b: INTEGER; op: CHAR): INTEGER;
BEGIN
  Stack.Push(a); Stack.Push(b);
  IF op = '+' THEN RETURN Stack.Pop() + Stack.Pop()
  ELSIF op = '*' THEN RETURN Stack.Pop() * Stack.Pop()
  ELSE RETURN 0 END
END Eval;

END Calc.
|}

let main_mod =
  {|IMPLEMENTATION MODULE Main;
IMPORT Calc, Stack;
FROM Stack IMPORT Capacity;

VAR r: INTEGER;

BEGIN
  r := Calc.Eval(6, 7, '*');
  WriteString("6*7 = "); WriteInt(r); WriteLn;
  r := Calc.Eval(30, 12, '+');
  WriteString("30+12 = "); WriteInt(r); WriteLn;
  WriteString("stack depth now "); WriteInt(Stack.Depth());
  WriteString(" of "); WriteInt(Capacity); WriteLn
END Main.
|}

let () =
  let store =
    Source_store.make ~main_name:"Main" ~main_src:main_mod
      ~defs:[ ("Stack", stack_def); ("Calc", calc_def) ]
      ~impls:[ ("Stack", stack_mod); ("Calc", calc_mod) ]
      ()
  in
  Printf.printf "initialization order: %s\n" (String.concat " -> " (Project.init_order store));
  let r = Project.compile store in
  List.iter (fun d -> print_endline (Mcc_m2.Diag.to_string d)) r.Project.diags;
  List.iter
    (fun (name, (m : Project.summary)) ->
      Printf.printf "  %-6s %2d streams, %3d tasks, %.3f virtual s\n" name m.Project.streams
        m.Project.tasks m.Project.seconds)
    r.Project.compiled;
  Printf.printf "linked %d code units\n\n"
    (List.length (Mcc_codegen.Cunit.unit_keys r.Project.program));
  let run = Mcc_vm.Vm.run r.Project.program in
  print_string run.Mcc_vm.Vm.output;
  Printf.printf "(%s)\n" (Mcc_vm.Vm.status_to_string run.Mcc_vm.Vm.status)
