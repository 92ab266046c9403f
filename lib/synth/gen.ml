(* The synthetic Modula-2+ program generator.

   Substitutes for the DEC SRC library the paper's 37-program test suite
   was drawn from (Table 1).  Every program is generated deterministically
   from a seed and a shape, is type-correct (the suite must compile
   without errors under every driver and strategy), and exercises the
   whole language subset: import DAGs with controlled depth and fan-out,
   FROM-imports and qualified names, enumerations, subranges, arrays,
   records, sets, pointers, procedure types, nested procedures, WITH,
   CASE, loops, and the Modula-2+ TRY/RAISE/LOCK extensions.

   Two generation modes:
   - compile-only (the benchmark suite): procedures may call forward and
     imported procedures, loops may be unbounded — the code is compiled,
     never executed;
   - [runnable]: calls go only to already-emitted procedures and all
     loops are bounded, so the compiled program terminates in the VM
     (used by examples and differential execution tests).

   Uplevel references from nested procedures to enclosing procedure
   locals are never generated (the target machine has no static links;
   the compiler rejects them). *)

open Mcc_util
open Mcc_core

type shape = {
  seed : int;
  name : string;
  n_defs : int; (* definition modules (total, all reachable) *)
  depth : int; (* import-nesting depth *)
  n_procs : int; (* top-level procedures in the main module *)
  nested_per_proc : int; (* max nested procedures per top-level one *)
  stmts_lo : int;
  stmts_hi : int; (* statements per procedure body *)
  module_vars : int;
  def_size : int; (* scales the declaration count of definition modules *)
  pad : int; (* bytes of comment text added per procedure: big modules
                carry proportionally more comments, making compile time
                sublinear in module size as in the paper's Table 1 *)
  runnable : bool;
}

(* ------------------------------------------------------------------ *)
(* Shape mutations: the reduction moves the conformance shrinker
   (Mcc_check.Shrink) applies before falling back to source-level delta
   debugging.  Every mutation strictly reduces some size field while
   keeping the shape generatable (invariants: n_procs >= 1,
   stmts_lo <= stmts_hi, depth >= 1, ...); a mutation that cannot
   reduce further returns the shape unchanged, which callers use as the
   fixpoint signal. *)

type mutation =
  | Drop_defs  (** remove every definition module *)
  | Halve_defs
  | Shallow_imports  (** import nesting depth -> 1 *)
  | Halve_procs
  | Drop_nested  (** no nested procedures *)
  | Halve_stmts  (** halve the per-procedure statement budget *)
  | Halve_module_vars
  | Shrink_def_size
  | Drop_pad  (** no comment padding *)

let mutations =
  [
    Drop_defs; Halve_defs; Shallow_imports; Halve_procs; Drop_nested; Halve_stmts;
    Halve_module_vars; Shrink_def_size; Drop_pad;
  ]

let mutation_name = function
  | Drop_defs -> "drop-defs"
  | Halve_defs -> "halve-defs"
  | Shallow_imports -> "shallow-imports"
  | Halve_procs -> "halve-procs"
  | Drop_nested -> "drop-nested"
  | Halve_stmts -> "halve-stmts"
  | Halve_module_vars -> "halve-module-vars"
  | Shrink_def_size -> "shrink-def-size"
  | Drop_pad -> "drop-pad"

let mutate (s : shape) = function
  | Drop_defs -> if s.n_defs = 0 then s else { s with n_defs = 0; depth = 1 }
  | Halve_defs -> if s.n_defs <= 1 then s else { s with n_defs = s.n_defs / 2 }
  | Shallow_imports -> if s.depth <= 1 then s else { s with depth = 1 }
  | Halve_procs -> if s.n_procs <= 1 then s else { s with n_procs = max 1 (s.n_procs / 2) }
  | Drop_nested -> if s.nested_per_proc = 0 then s else { s with nested_per_proc = 0 }
  | Halve_stmts ->
      if s.stmts_hi <= 1 then s
      else
        let hi = max 1 (s.stmts_hi / 2) in
        { s with stmts_hi = hi; stmts_lo = min s.stmts_lo hi }
  | Halve_module_vars ->
      if s.module_vars <= 1 then s else { s with module_vars = max 1 (s.module_vars / 2) }
  | Shrink_def_size -> if s.def_size <= 1 then s else { s with def_size = 1 }
  | Drop_pad -> if s.pad = 0 then s else { s with pad = 0 }

(* ------------------------------------------------------------------ *)
(* What a definition module exports (tracked so the main module can
   reference imported names type-correctly). *)

type def_info = {
  d_name : string;
  d_consts : string list; (* INTEGER constants *)
  d_int_vars : string list;
  d_funcs : string list; (* PROCEDURE (INTEGER): INTEGER *)
  d_procs : string list; (* PROCEDURE (VAR INTEGER) *)
}

type st = {
  rng : Prng.t;
  shape : shape;
  buf : Buffer.t;
  mutable indent : int;
  imported_by_someone : (string, unit) Hashtbl.t;
      (* interfaces imported by another interface; the main module
         imports the rest so every interface is reachable *)
}

(* One indented line made of [parts]; the statement path writes its
   lines this way, with no format to interpret. *)
let emit st parts =
  for _ = 1 to st.indent do
    Buffer.add_string st.buf "  "
  done;
  List.iter (Buffer.add_string st.buf) parts;
  Buffer.add_char st.buf '\n'

let line st fmt = Printf.ksprintf (fun s -> emit st [ s ]) fmt

let nest st f =
  st.indent <- st.indent + 1;
  f ();
  st.indent <- st.indent - 1

(* ------------------------------------------------------------------ *)
(* Definition modules *)

(* Distribute [n] definition modules over [depth] levels; level 0 is the
   deepest (imports nothing).  Every module at level l>0 imports at least
   one module at level l-1, and the main module imports every module at
   the top level, so all are reachable. *)
let plan_levels rng ~n ~depth =
  if n <= 0 then [||]
  else
  let depth = max 1 (min depth n) in
  let counts = Array.make depth 1 in
  for _ = 1 to n - depth do
    let l = Prng.int rng depth in
    counts.(l) <- counts.(l) + 1
  done;
  counts

let gen_def st rng ~prog ~index ~level ~below : string * def_info =
  let name = Printf.sprintf "%sL%d" prog index in
  let buf = Buffer.create 512 in
  let s = { st with buf; indent = 0 } in
  line s "DEFINITION MODULE %s;" name;
  (* imports from the level below: a chain link plus extra fan-out *)
  let imported =
    if below = [] then []
    else begin
      let first = Prng.choose rng below in
      let extra =
        List.filter (fun d -> d.d_name <> first.d_name && Prng.chance rng 0.3) below
      in
      first :: extra
    end
  in
  List.iter
    (fun d ->
      Hashtbl.replace st.imported_by_someone d.d_name ();
      line s "IMPORT %s;" d.d_name)
    imported;
  (* a FROM import when possible, to exercise "other"-scope lookups *)
  (match imported with
  | d :: _ when d.d_consts <> [] ->
      line s "FROM %s IMPORT %s;" d.d_name (List.hd d.d_consts)
  | _ -> ());
  let n_consts = Prng.range rng 2 5 * max 1 st.shape.def_size in
  let consts = List.init n_consts (fun k -> Printf.sprintf "c%d_%d" index k) in
  line s "CONST";
  nest s (fun () ->
      List.iteri
        (fun k c ->
          match imported with
          | d :: _ when d.d_consts <> [] && k = 0 ->
              (* reference an imported constant in a constant expression *)
              line s "%s = %s.%s + %d;" c d.d_name (List.hd d.d_consts) (Prng.range rng 1 9)
          | _ -> line s "%s = %d;" c (Prng.range rng 1 100))
        consts);
  line s "TYPE";
  nest s (fun () ->
      line s "tEnum%d = (red%d, green%d, blue%d);" index index index index;
      line s "tArr%d = ARRAY [0..%d] OF INTEGER;" index (Prng.range rng 7 15);
      line s "tRec%d = RECORD a, b: INTEGER; ok: BOOLEAN END;" index;
      line s "tSet%d = SET OF [0..15];" index;
      line s "tPtr%d = POINTER TO tRec%d;" index index);
  let n_vars = Prng.range rng 2 4 * max 1 st.shape.def_size in
  let int_vars = List.init n_vars (fun k -> Printf.sprintf "v%d_%d" index k) in
  line s "VAR";
  nest s (fun () ->
      List.iter (fun v -> line s "%s: INTEGER;" v) int_vars;
      line s "flag%d: BOOLEAN;" index;
      line s "rec%d: tRec%d;" index index);
  let n_funcs = Prng.range rng 1 3 * max 1 st.shape.def_size in
  let funcs = List.init n_funcs (fun k -> Printf.sprintf "f%d_%d" index k) in
  List.iter (fun f -> line s "PROCEDURE %s(x: INTEGER): INTEGER;" f) funcs;
  let n_procs = Prng.range rng 1 2 in
  let procs = List.init n_procs (fun k -> Printf.sprintf "p%d_%d" index k) in
  List.iter (fun p -> line s "PROCEDURE %s(VAR x: INTEGER);" p) procs;
  line s "END %s." name;
  ignore level;
  ( Buffer.contents s.buf,
    { d_name = name; d_consts = consts; d_int_vars = int_vars; d_funcs = funcs; d_procs = procs } )

(* ------------------------------------------------------------------ *)
(* Expressions and statements for the main module

   Each choice list is an array, so a draw indexes it ([Prng.choose_arr]
   draws the same number [Prng.choose] does).  Where a piece of text
   takes several draws, they are made right to left, the last part's
   first: every generated program, and every golden built on one,
   depends on that order. *)

(* The generation environment inside one procedure body. *)
type penv = {
  int_lvalues : string array; (* assignable INTEGER designators *)
  int_rvalues : string array; (* INTEGER expressions: vars, consts, params *)
  bool_lvalues : string array;
  set_lvalues : string array; (* designators of type BITSET-ish SET OF [0..15] *)
  rec_lvalues : string array; (* tRec-style records with fields a, b: INTEGER; ok: BOOLEAN *)
  callable_funcs : string array; (* f(INTEGER): INTEGER by name *)
  callable_procs : string array; (* p(VAR INTEGER) by name *)
  exception_name : string option;
  loop_vars : string array;
      (* dedicated locals for FOR loops, one per nesting level: nested
         FORs must not share a control variable or the outer loop can be
         reset forever *)
  for_depth : int ref;
  loop_var : string; (* the outermost FOR variable (also used in array indexes) *)
  scratch : string; (* a dedicated local for bounded WHILE loops *)
  while_depth : int ref; (* enclosing WHILE loops, all counting [scratch] *)
}

let has xs = Array.length xs > 0
let arith_ops = [| "+"; "-"; "*" |]
let comparisons = [| "<"; "<="; ">"; ">="; "="; "#" |]
let cat = String.concat ""

let rec int_expr st rng env depth =
  if depth <= 0 then
    match Prng.int rng 3 with
    | 0 -> string_of_int (Prng.range rng 0 99)
    | 1 when has env.int_rvalues -> Prng.choose_arr rng env.int_rvalues
    | _ -> if has env.int_rvalues then Prng.choose_arr rng env.int_rvalues else "7"
  else
    let sub () = int_expr st rng env (depth - 1) in
    match Prng.int rng 8 with
    | 0 | 1 ->
        let r = sub () in
        let op = Prng.choose_arr rng arith_ops in
        cat [ "("; sub (); " "; op; " "; r; ")" ]
    | 2 ->
        let k = Prng.range rng 1 9 in
        cat [ "("; sub (); " DIV "; string_of_int k; ")" ]
    | 3 ->
        let k = Prng.range rng 2 9 in
        cat [ "("; sub (); " MOD "; string_of_int k; ")" ]
    | 4 when has env.callable_funcs ->
        let e = sub () in
        cat [ Prng.choose_arr rng env.callable_funcs; "("; e; ")" ]
    | 5 -> cat [ "ABS("; sub (); ")" ]
    | 6 -> cat [ "ORD(ODD("; sub (); "))" ]
    | _ -> int_expr st rng env 0

let bool_expr st rng env depth =
  match Prng.int rng 4 with
  | 0 ->
      let r = int_expr st rng env depth in
      let op = Prng.choose_arr rng comparisons in
      cat [ "("; int_expr st rng env depth; " "; op; " "; r; ")" ]
  | 1 when has env.bool_lvalues -> Prng.choose_arr rng env.bool_lvalues
  | 2 -> cat [ "ODD("; int_expr st rng env depth; ")" ]
  | _ when has env.set_lvalues ->
      let set = Prng.choose_arr rng env.set_lvalues in
      cat [ "(("; int_expr st rng env (depth - 1); " MOD 16) IN "; set; ")" ]
  | _ -> cat [ "("; int_expr st rng env depth; " > 0)" ]

(* "v := e;" for a drawn INTEGER designator [v]; [e] is drawn first. *)
let assign st rng env depth =
  let e = int_expr st rng env depth in
  emit st [ Prng.choose_arr rng env.int_lvalues; " := "; e; ";" ]

let rec stmt st rng env ~budget =
  if !budget <= 0 then ()
  else begin
    decr budget;
    match Prng.int rng 20 with
    | 0 | 1 | 2 | 3 | 4 when has env.int_lvalues -> assign st rng env 2
    | 5 when has env.bool_lvalues ->
        let e = bool_expr st rng env 1 in
        emit st [ Prng.choose_arr rng env.bool_lvalues; " := "; e; ";" ]
    | 6 ->
        emit st [ "IF "; bool_expr st rng env 1; " THEN" ];
        nest st (fun () -> stmt_seq st rng env ~budget ~n:(Prng.range rng 1 3));
        if Prng.bool rng then begin
          emit st [ "ELSE" ];
          nest st (fun () -> stmt_seq st rng env ~budget ~n:(Prng.range rng 1 2))
        end;
        emit st [ "END;" ]
    | 7 when !(env.for_depth) < Array.length env.loop_vars ->
        let v = env.loop_vars.(!(env.for_depth)) in
        let bound = Prng.range rng 3 12 in
        looped st ~depth:env.for_depth ~shares_counter:(v = env.scratch && !(env.while_depth) > 0)
          ~header:[ cat [ "FOR "; v; " := 0 TO "; string_of_int bound; " DO" ] ]
          (fun () -> stmt_seq st rng env ~budget ~n:(Prng.range rng 1 3))
    | 8 ->
        (* a bounded WHILE: terminates in both modes *)
        let count = Prng.range rng 2 9 in
        let in_for = ref false in
        for i = 0 to min !(env.for_depth) (Array.length env.loop_vars) - 1 do
          if env.loop_vars.(i) = env.scratch then in_for := true
        done;
        looped st ~depth:env.while_depth ~shares_counter:!in_for
          ~header:
            [ cat [ env.scratch; " := "; string_of_int count; ";" ];
              cat [ "WHILE "; env.scratch; " > 0 DO" ] ]
          ~footer:[ cat [ env.scratch; " := "; env.scratch; " - 1;" ] ]
          (fun () -> stmt_seq st rng env ~budget ~n:(Prng.range rng 1 2))
    | 9 ->
        emit st [ "CASE ("; int_expr st rng env 1; ") MOD 4 OF" ];
        nest st (fun () ->
            if has env.int_lvalues then begin
              let e = int_expr st rng env 1 in
              emit st [ "0: "; Prng.choose_arr rng env.int_lvalues; " := "; e; ";" ]
            end
            else emit st [ "0: ;" ];
            emit st [ "| 1, 2:" ];
            nest st (fun () -> stmt_seq st rng env ~budget ~n:1);
            emit st [ "ELSE" ];
            nest st (fun () -> stmt_seq st rng env ~budget ~n:1));
        emit st [ "END;" ]
    | 10 when has env.rec_lvalues ->
        emit st [ "WITH "; Prng.choose_arr rng env.rec_lvalues; " DO" ];
        nest st (fun () ->
            emit st [ "a := "; int_expr st rng env 1; ";" ];
            emit st [ "b := a + "; string_of_int (Prng.range rng 1 9); ";" ];
            emit st [ "ok := "; bool_expr st rng env 0; ";" ]);
        emit st [ "END;" ]
    | 11 when has env.set_lvalues -> (
        let s = Prng.choose_arr rng env.set_lvalues in
        match Prng.int rng 3 with
        | 0 -> emit st [ "INCL("; s; ", ("; int_expr st rng env 1; ") MOD 16);" ]
        | 1 -> emit st [ "EXCL("; s; ", "; string_of_int (Prng.range rng 0 15); ");" ]
        | _ ->
            let c = Prng.range rng 9 15 in
            let b = Prng.range rng 4 8 in
            let a = Prng.range rng 0 3 in
            emit st
              [ s; " := "; s; " + {"; string_of_int a; ", "; string_of_int b; ".."; string_of_int c; "};" ])
    | 12 when has env.int_lvalues ->
        let step = if Prng.bool rng then "" else ", " ^ string_of_int (Prng.range rng 1 5) in
        emit st [ "INC("; Prng.choose_arr rng env.int_lvalues; step; ");" ]
    | 13 when has env.callable_procs && has env.int_lvalues ->
        let v = Prng.choose_arr rng env.int_lvalues in
        emit st [ Prng.choose_arr rng env.callable_procs; "("; v; ");" ]
    | 14 when env.exception_name <> None && has env.int_lvalues ->
        let exc = Option.get env.exception_name in
        emit st [ "TRY" ];
        nest st (fun () ->
            emit st [ "IF "; bool_expr st rng env 0; " THEN RAISE "; exc; " END;" ];
            stmt_seq st rng env ~budget ~n:1);
        emit st [ "EXCEPT "; exc; ":" ];
        nest st (fun () -> stmt_seq st rng env ~budget ~n:1);
        emit st [ "END;" ]
    | 15 when has env.int_lvalues ->
        (* a REPEAT that runs exactly once: the condition compares a
           value with itself, and the body never touches loop counters *)
        let v = Prng.choose_arr rng env.int_lvalues in
        emit st [ "REPEAT" ];
        emit st [ "  "; v; " := "; int_expr st rng env 1; ";" ];
        emit st [ "UNTIL "; v; " = "; v; ";" ]
    | _ when has env.int_lvalues -> assign st rng env 2
    | _ -> emit st [ env.loop_var; " := "; int_expr st rng env 1; ";" ]
  end

(* A loop around [body], one level deeper in [depth]: [header] lines,
   the indented body, [footer] lines (still inside the loop), END.
   Nested procedures count FOR and WHILE loops in one local, so a FOR
   inside a WHILE (or the reverse) would reset the outer loop's counter
   forever; in a runnable program such a loop ([shares_counter]) emits
   its body once, unlooped.  The random draws are the same either way. *)
and looped st ~depth ~shares_counter ~header ?(footer = []) body =
  incr depth;
  if shares_counter && st.shape.runnable then body ()
  else begin
    List.iter (fun l -> emit st [ l ]) header;
    nest st (fun () ->
        body ();
        List.iter (fun l -> emit st [ l ]) footer);
    emit st [ "END;" ]
  end;
  decr depth

and stmt_seq st rng env ~budget ~n =
  for _ = 1 to n do
    stmt st rng env ~budget
  done

(* ------------------------------------------------------------------ *)
(* The main module *)

let gen_proc st rng ~(defs : def_info list) ~imported_funcs ~imported_procs ~qualified_consts
    ~from_imports ~globals ~index ~nested_budget ~emitted ~shape =
  let fname = Printf.sprintf "P%d" index in
  let is_func = Prng.bool rng in
  let n_params = if is_func && Prng.chance rng 0.7 then 1 else Prng.range rng 0 3 in
  let params = List.init n_params (fun k -> Printf.sprintf "a%d" k) in
  let heading =
    Printf.sprintf "PROCEDURE %s%s%s;" fname
      (if params = [] then ""
       else "(" ^ String.concat "; " (List.map (fun p -> p ^ ": INTEGER") params) ^ ")")
      (if is_func then ": INTEGER" else "")
  in
  line st "%s" heading;
  if shape.pad > 0 then begin
    let words = max 1 (shape.pad / 60) in
    for w = 1 to words do
      line st "(* %s %d: this block documents invariants of %s in prose form padding *)"
        fname w fname
    done
  end;
  let n_locals = Prng.range rng 2 5 in
  let locals = List.init n_locals (fun k -> Printf.sprintf "x%d" k) in
  nest st (fun () ->
      (* a local constant referencing an imported interface: qualified
         names are common in declarations (paper §4.3), and these
         references race the interface's declaration analysis early in
         the compilation — the main source of DKY blockages *)
      (match defs with
      | d :: _ when d.d_consts <> [] && Prng.chance rng 0.6 ->
          line st "CONST lq = %s.%s + %d;" d.d_name
            (Prng.choose rng d.d_consts) (Prng.range rng 1 9)
      | _ -> ());
      line st "VAR %s, i, i2, i3, lc, tmp: INTEGER; done: BOOLEAN;" (String.concat ", " locals);
      line st "VAR rr: gRec; ss: gSet; aa: gArr;");
  (* nested procedures: own locals only (no uplevel addressing) *)
  let nested =
    List.init
      (if nested_budget > 0 then Prng.int rng (nested_budget + 1) else 0)
      (fun k -> Printf.sprintf "N%d_%d" index k)
  in
  nest st (fun () ->
      List.iter
        (fun nname ->
          line st "PROCEDURE %s(y: INTEGER): INTEGER;" nname;
          line st "VAR t, u: INTEGER;";
          line st "BEGIN";
          nest st (fun () ->
              let env =
                {
                  (* nested procedures reach enclosing locals through the
                     static chain (uplevel addressing) *)
                  int_lvalues = [| "t"; List.hd locals |];
                  int_rvalues =
                    Array.of_list
                      ([ "y"; "t"; List.hd globals; List.hd locals ] @ params @ from_imports);
                  bool_lvalues = [||];
                  set_lvalues = [||];
                  rec_lvalues = [||];
                  callable_funcs =
                    (match defs with
                    | d :: _ when not shape.runnable -> [| d.d_name ^ "." ^ List.hd d.d_funcs |]
                    | _ -> [||]);
                  callable_procs = [||];
                  exception_name = None;
                  loop_vars = [| "u" |];
                  for_depth = ref 0;
                  while_depth = ref 0;
                  loop_var = "u";
                  scratch = "u";
                }
              in
              line st "t := y; u := 0;";
              let budget = ref (Prng.range rng 2 5) in
              stmt_seq st rng env ~budget ~n:3;
              line st "RETURN t + y");
          line st "END %s;" nname)
        nested);
  line st "BEGIN";
  let qualified_ints =
    (* interface variables are storage in the exporting module's frame;
       runnable programs never touch them (their initialization would be
       that module's body, which is not compiled here) *)
    if shape.runnable then []
    else
      List.concat_map
        (fun d ->
          List.map (fun v -> d.d_name ^ "." ^ v) (if Prng.chance rng 0.4 then d.d_int_vars else []))
        defs
  in
  let callable_funcs =
    List.filter_map
      (fun (f, has_result, arity) -> if has_result && arity = 1 then Some f else None)
      emitted
    @ nested @ imported_funcs
  in
  nest st (fun () ->
      let env =
        {
          int_lvalues =
            Array.of_list
              (locals @ params @ [ "tmp" ] @ globals @ [ "rr.a"; "rr.b"; "aa[i MOD 8]" ]
             @ qualified_ints);
          int_rvalues =
            Array.of_list
              (locals @ params @ globals
              @ (if has qualified_consts then [ Prng.choose_arr rng qualified_consts ] else [])
              @ from_imports);
          bool_lvalues = [| "done"; "rr.ok" |];
          set_lvalues = [| "ss" |];
          rec_lvalues = [| "rr" |];
          callable_funcs = Array.of_list callable_funcs;
          callable_procs = imported_procs;
          exception_name = Some "gExc";
          loop_vars = [| "i"; "i2"; "i3" |];
          for_depth = ref 0;
          while_depth = ref 0;
          loop_var = "i";
          scratch = "lc";
        }
      in
      List.iteri (fun k x -> line st "%s := %d;" x (k + 1)) locals;
      line st "tmp := 0; i := 0; i2 := 0; i3 := 0; lc := 0; done := FALSE;";
      line st "rr.a := 1; rr.b := 2; rr.ok := TRUE; ss := {};";
      line st "FOR i := 0 TO 7 DO aa[i] := i END;";
      let base_budget = Prng.range rng shape.stmts_lo shape.stmts_hi in
      let budget =
        (* procedure sizes in real software are heavily skewed: a few
           procedures are several times larger than the rest, producing
           the long sequential tail the paper's long-before-short
           scheduling fights (§2.3.4) *)
        ref (if Prng.chance rng 0.08 then base_budget * Prng.range rng 4 8 else base_budget)
      in
      while !budget > 0 do
        stmt st rng env ~budget
      done;
      if is_func then line st "RETURN tmp");
  line st "END %s;" fname;
  line st "";
  (fname, is_func, n_params)

let generate ?seed (shape : shape) : Source_store.t =
  let rng = Prng.create (Option.value ~default:shape.seed seed) in
  let prog = shape.name in
  let st =
    { rng; shape; buf = Buffer.create 4096; indent = 0; imported_by_someone = Hashtbl.create 32 }
  in
  (* --- definition modules, level by level --- *)
  let levels = plan_levels rng ~n:shape.n_defs ~depth:shape.depth in
  let all_defs = ref [] in
  let def_sources = ref [] in
  let idx = ref 0 in
  let below = ref [] in
  Array.iteri
    (fun level count ->
      let this_level = ref [] in
      for _ = 1 to count do
        let src, info = gen_def st rng ~prog ~index:!idx ~level ~below:!below in
        incr idx;
        def_sources := (info.d_name, src) :: !def_sources;
        this_level := info :: !this_level;
        all_defs := info :: !all_defs
      done;
      below := !this_level)
    levels;
  let top_level = !below in
  let all_defs = List.rev !all_defs in
  (* --- the main module --- *)
  line st "IMPLEMENTATION MODULE %s;" prog;
  (* direct imports: every top-level interface, every interface no other
     interface imports (so all are reachable), plus a sample of others *)
  let direct =
    top_level
    @ List.filter
        (fun d ->
          (not (List.memq d top_level))
          && ((not (Hashtbl.mem st.imported_by_someone d.d_name)) || Prng.chance rng 0.15))
        all_defs
  in
  List.iter (fun d -> line st "IMPORT %s;" d.d_name) direct;
  let from_imports =
    List.filter_map
      (fun (d : def_info) ->
        if Prng.chance rng 0.5 && d.d_consts <> [] then begin
          let c = List.hd d.d_consts in
          line st "FROM %s IMPORT %s;" d.d_name c;
          Some c
        end
        else None)
      direct
  in
  line st "";
  line st "TYPE gRec = RECORD a, b: INTEGER; ok: BOOLEAN END;";
  line st "TYPE gSet = SET OF [0..15];";
  line st "TYPE gArr = ARRAY [0..7] OF INTEGER;";
  line st "TYPE gPtr = POINTER TO gRec;";
  let globals = List.init (max 1 shape.module_vars) (fun k -> Printf.sprintf "g%d" k) in
  (* the module-level declaration section: large in real modules, and
     processed serially by the module parser before later procedure
     headings are reached — the source of the mid-compilation lull the
     paper's Figure 7 shows *)
  let qualified_consts_all =
    Array.of_list
      (List.concat_map (fun d -> List.map (fun c -> d.d_name ^ "." ^ c) d.d_consts) direct)
  in
  for k = 0 to (3 * shape.module_vars) - 1 do
    if has qualified_consts_all && Prng.chance rng 0.3 then
      line st "CONST mc%d = %s + %d;" k
        (Prng.choose_arr rng qualified_consts_all)
        (Prng.range rng 1 50)
    else line st "CONST mc%d = %d;" k (Prng.range rng 1 500)
  done;
  for k = 0 to shape.module_vars - 1 do
    line st "TYPE mt%d = ARRAY [0..%d] OF INTEGER;" k (Prng.range rng 3 31)
  done;
  for k = 0 to shape.module_vars - 1 do
    line st "TYPE mr%d = RECORD x, y: INTEGER; tag: BOOLEAN END;" k
  done;
  line st "VAR %s: INTEGER;" (String.concat ", " globals);
  for k = 0 to shape.module_vars - 1 do
    line st "VAR mv%d: mt%d; mw%d: mr%d;" k k k k
  done;
  line st "VAR gExc: EXCEPTION;";
  line st "VAR gMu: MUTEX;";
  line st "VAR gp: gPtr;";
  line st "";
  (* --- procedures --- *)
  let imported f =
    if shape.runnable then []
    else List.concat_map (fun d -> List.map (fun x -> d.d_name ^ "." ^ x) (f d)) direct
  in
  let imported_funcs = imported (fun d -> d.d_funcs)
  and imported_procs = Array.of_list (imported (fun d -> d.d_procs)) in
  let emitted = ref [] in
  for i = 0 to shape.n_procs - 1 do
    let fname, is_func, n_params =
      gen_proc st rng ~defs:direct ~imported_funcs ~imported_procs
        ~qualified_consts:qualified_consts_all ~from_imports ~globals ~index:i
        ~nested_budget:shape.nested_per_proc ~emitted:!emitted ~shape
    in
    emitted := (fname, is_func, n_params) :: !emitted
  done;
  (* --- module body --- *)
  line st "BEGIN";
  nest st (fun () ->
      List.iteri (fun k g -> line st "%s := %d;" g (k + 1)) globals;
      line st "NEW(gp); gp^.a := 10; gp^.b := gp^.a * 2; gp^.ok := TRUE;";
      line st "LOCK gMu DO %s := %s + gp^.b END;" (List.hd globals) (List.hd globals);
      List.iteri
        (fun k (f, has_result, arity) ->
          if has_result && arity = 1 then
            line st "%s := %s + %s(%d);" (List.hd globals) (List.hd globals) f k)
        !emitted;
      if shape.runnable then begin
        line st "WriteString(\"%s=\"); WriteInt(%s); WriteLn;" prog (List.hd globals)
      end);
  line st "END %s." prog;
  Source_store.make ~main_name:prog ~main_src:(Buffer.contents st.buf)
    ~defs:(List.rev !def_sources) ()

(* ------------------------------------------------------------------ *)
(* Implementation synthesis: turning the suite's single-implementation
   programs into multi-module projects, so the incremental build layer
   has more than one module to (not) rebuild. *)

(* The PROCEDURE headings a generated definition module declares.  They
   are emitted at column 0 in the fixed formats of [gen_def]:
   "PROCEDURE f(x: INTEGER): INTEGER;" and "PROCEDURE p(VAR x: INTEGER);". *)
let def_procs_of_src src =
  String.split_on_char '\n' src
  |> List.filter_map (fun l ->
         if String.starts_with ~prefix:"PROCEDURE " l then
           let rest = String.sub l 10 (String.length l - 10) in
           let stop =
             match (String.index_opt rest '(', String.index_opt rest ';') with
             | Some i, _ -> i
             | None, Some i -> i
             | None, None -> String.length rest
           in
           Some (String.trim (String.sub rest 0 stop), String.ends_with ~suffix:": INTEGER;" l)
         else None)

(* A synthetic implementation of a definition module: every declared
   procedure gets a body whose behavior depends only on its arguments
   and [rev] — bumping [rev] is a pure body edit (the interface text is
   untouched), the edit stream's Body_only move. *)
let impl_of_def ?(rev = 0) ~name src =
  let b = Buffer.create 256 in
  Printf.bprintf b "IMPLEMENTATION MODULE %s;\n" name;
  Printf.bprintf b "(* synthetic implementation, revision %d *)\n" rev;
  List.iter
    (fun (p, is_func) ->
      if is_func then
        Printf.bprintf b
          "PROCEDURE %s(x: INTEGER): INTEGER;\nBEGIN\n  RETURN x + %d\nEND %s;\n" p
          (rev + 1) p
      else
        Printf.bprintf b "PROCEDURE %s(VAR x: INTEGER);\nBEGIN\n  x := x + %d\nEND %s;\n" p
          (rev + 1) p)
    (def_procs_of_src src);
  Printf.bprintf b "BEGIN\nEND %s.\n" name;
  Buffer.contents b

let with_impls (store : Source_store.t) : Source_store.t =
  let main = Source_store.main_name store in
  let existing =
    List.filter_map
      (fun m ->
        if m = main then None
        else Option.map (fun s -> (m, s)) (Source_store.impl_src store m))
      (Source_store.impl_names store)
  in
  let defs =
    List.filter_map
      (fun n -> Option.map (fun s -> (n, s)) (Source_store.def_src store n))
      (Source_store.def_names store)
  in
  let synthesized =
    List.filter_map
      (fun (n, s) ->
        if n <> main && Source_store.impl_src store n <> None then None
        else Some (n, impl_of_def ~name:n s))
      defs
  in
  Source_store.make
    ~impls:(existing @ synthesized)
    ~main_name:main ~main_src:(Source_store.main_src store) ~defs ()

(* ------------------------------------------------------------------ *)
(* The edit stream: a seeded sequence of single-declaration edits over a
   project, cumulative (each edit applies to the store the previous one
   produced).  The three classes exercise the three behaviors of the
   fine-grained incremental layer:

   - [Body_only]: an implementation body changes; no interface text is
     touched.  Exactly the edited module should rebuild.
   - [Sig_preserving]: interface text changes (a comment) but no
     declaration does; the interface fingerprint moves while its shape
     digest does not.  Early cutoff should rebuild nothing.
   - [Sig_changing]: one exported constant's value changes — one slice
     digest moves.  Only modules that actually used that slice should
     rebuild. *)

type edit_class = Body_only | Sig_preserving | Sig_changing

let class_name = function
  | Body_only -> "body-only"
  | Sig_preserving -> "sig-preserving"
  | Sig_changing -> "sig-changing"

type edit = {
  e_class : edit_class;
  e_target : string; (* the module whose source the edit touched *)
  e_slice : string option; (* the declaration a Sig_changing edit moved *)
  e_store : Source_store.t; (* the project after the edit *)
}

(* "  cI_K = N;" with a literal right-hand side (the generator's plain
   constants; imported-reference constants are left alone). *)
let const_line_target line =
  let line' = String.trim line in
  if String.length line' > 0 && line'.[0] = 'c' && String.ends_with ~suffix:";" line' then
    match String.index_opt line' '=' with
    | None -> None
    | Some eq ->
        let name = String.trim (String.sub line' 0 eq) in
        let rhs = String.trim (String.sub line' (eq + 1) (String.length line' - eq - 2)) in
        if name <> "" && rhs <> "" && String.for_all (fun c -> c >= '0' && c <= '9') rhs
        then Some (name, int_of_string rhs)
        else None
  else None

(* An association list in the order [(k, v) :: List.remove_assoc k l]
   leaves it in: the entries set so far, most recent first, then the
   initial entries not set, in their initial order.  A lookup or an
   update costs in proportion to the number of keys set so far, not to
   the list's length.  Keys are distinct. *)
module Mtf = struct
  type 'a t = {
    base : (string * 'a) array; (* the initial entries *)
    pos : (string, int) Hashtbl.t; (* a key's position in [base] *)
    mutable front : (string * 'a) list; (* the entries set, most recent first *)
    mutable moved : int list; (* positions in [base] of keys set, ascending *)
  }

  let of_list l =
    let base = Array.of_list l in
    let pos = Hashtbl.create (Array.length base) in
    Array.iteri (fun i (k, _) -> Hashtbl.replace pos k i) base;
    { base; pos; front = []; moved = [] }

  let length t = List.length t.front + Array.length t.base - List.length t.moved

  let nth t i =
    let n = List.length t.front in
    if i < n then List.nth t.front i
    else t.base.(List.fold_left (fun j p -> if p <= j then j + 1 else j) (i - n) t.moved)

  let set t k v =
    if not (List.mem_assoc k t.front) then
      Option.iter (fun p -> t.moved <- List.merge compare [ p ] t.moved) (Hashtbl.find_opt t.pos k);
    t.front <- (k, v) :: List.remove_assoc k t.front

  let to_list t =
    let rest = ref [] and moved = ref (List.rev t.moved) in
    for i = Array.length t.base - 1 downto 0 do
      match !moved with
      | p :: ps when p = i -> moved := ps
      | _ -> rest := t.base.(i) :: !rest
    done;
    t.front @ !rest
end

(* The lines of [src] a [Sig_changing] edit may bump, with their
   constants, in source order. *)
let const_targets src =
  List.filter_map
    (fun ln -> Option.map (fun c -> (ln, c)) (const_line_target ln))
    (String.split_on_char '\n' src)

let edit_stream ?(seed = 0) ~n (store : Source_store.t) : edit list =
  let store = with_impls store in
  let rng = Prng.create seed in
  let main = Source_store.main_name store in
  let defs =
    Mtf.of_list
      (List.filter_map
         (fun d -> Option.map (fun s -> (d, s)) (Source_store.def_src store d))
         (Source_store.def_names store))
  in
  let impls =
    Mtf.of_list
      (List.filter_map
         (fun m ->
           if m = main then None
           else Option.map (fun s -> (m, s)) (Source_store.impl_src store m))
         (Source_store.impl_names store))
  in
  let main_src = ref (Source_store.main_src store) in
  let revs = Hashtbl.create 8 in
  let comment_revs = Hashtbl.create 8 in
  let main_rev = ref 0 in
  let rebuild () =
    Source_store.make ~impls:(Mtf.to_list impls) ~main_name:main ~main_src:!main_src
      ~defs:(Mtf.to_list defs) ()
  in
  (* The bumpable constants of the interfaces in their current order:
     those of edited interfaces by name, found again only after an
     edit; those of the initial ones found once, [pre.(j)] counting the
     ones in the first [j]. *)
  let edited_targets = Hashtbl.create 8 in
  let targets_of (name, src) =
    match Hashtbl.find_opt edited_targets name with
    | Some ts -> ts
    | None ->
        let ts = const_targets src in
        Hashtbl.replace edited_targets name ts;
        ts
  in
  let initial_targets = lazy (Array.map (fun (_, src) -> const_targets src) defs.Mtf.base) in
  let initial_pre =
    lazy
      (let ts = Lazy.force initial_targets in
       let pre = Array.make (Array.length ts + 1) 0 in
       Array.iteri (fun j l -> pre.(j + 1) <- pre.(j) + List.length l) ts;
       pre)
  in
  let set_def name src =
    Hashtbl.remove edited_targets name;
    Mtf.set defs name src
  in
  let draw_def () = Mtf.nth defs (Prng.int rng (Mtf.length defs)) in
  let body_only () =
    (* regenerate one interface's synthetic implementation at the next
       revision; without interfaces, touch a comment in the main body *)
    if Mtf.length defs = 0 then begin
      incr main_rev;
      main_src := Printf.sprintf "(* body revision %d *)\n%s" !main_rev !main_src;
      { e_class = Body_only; e_target = main; e_slice = None; e_store = rebuild () }
    end
    else
      let name, dsrc = draw_def () in
      let rev = 1 + Option.value ~default:0 (Hashtbl.find_opt revs name) in
      Hashtbl.replace revs name rev;
      Mtf.set impls name (impl_of_def ~rev ~name dsrc);
      { e_class = Body_only; e_target = name; e_slice = None; e_store = rebuild () }
  in
  let sig_preserving () =
    if Mtf.length defs = 0 then body_only () (* degenerate project: no interface to touch *)
    else
      let name, dsrc = draw_def () in
      let crev = 1 + Option.value ~default:0 (Hashtbl.find_opt comment_revs name) in
      Hashtbl.replace comment_revs name crev;
      let guard = Printf.sprintf "END %s." name in
      let lines = String.split_on_char '\n' dsrc in
      let out =
        List.concat_map
          (fun ln ->
            if String.trim ln = guard then
              [ Printf.sprintf "(* interface comment revision %d *)" crev; ln ]
            else [ ln ])
          lines
      in
      set_def name (String.concat "\n" out);
      { e_class = Sig_preserving; e_target = name; e_slice = None; e_store = rebuild () }
  in
  let sig_changing () =
    (* bump the literal of one plain exported constant *)
    let initial = Lazy.force initial_targets and pre = Lazy.force initial_pre in
    let front = List.map (fun d -> (d, targets_of d)) defs.Mtf.front in
    let n_front = List.fold_left (fun a (_, ts) -> a + List.length ts) 0 front in
    let width p = pre.(p + 1) - pre.(p) in
    let total =
      n_front + pre.(Array.length initial)
      - List.fold_left (fun a p -> a + width p) 0 defs.Mtf.moved
    in
    if total = 0 then body_only ()
    else
      let i = Prng.int rng total in
      let (name, dsrc), (ln, (cname, v)) =
        if i < n_front then
          let rec pick i = function
            | (d, ts) :: rest ->
                let c = List.length ts in
                if i < c then (d, List.nth ts i) else pick (i - c) rest
            | [] -> assert false
          in
          pick i front
        else
          (* the [i - n_front]th constant of the interfaces not edited,
             then the last interface whose constants start at or before
             it *)
          let x =
            List.fold_left
              (fun x p -> if pre.(p) <= x then x + width p else x)
              (i - n_front) defs.Mtf.moved
          in
          let rec last lo hi =
            if lo >= hi then lo
            else
              let mid = (lo + hi + 1) / 2 in
              if pre.(mid) <= x then last mid hi else last lo (mid - 1)
          in
          let j = last 0 (Array.length initial - 1) in
          (defs.Mtf.base.(j), List.nth initial.(j) (x - pre.(j)))
      in
      let replaced = ref false in
      let out =
        List.map
          (fun l' ->
            if (not !replaced) && l' = ln then begin
              replaced := true;
              Printf.sprintf "  %s = %d;" cname (v + 1)
            end
            else l')
          (String.split_on_char '\n' dsrc)
      in
      set_def name (String.concat "\n" out);
      { e_class = Sig_changing; e_target = name; e_slice = Some cname; e_store = rebuild () }
  in
  List.init n (fun _ ->
      match Prng.int rng 3 with
      | 0 -> body_only ()
      | 1 -> sig_preserving ()
      | _ -> sig_changing ())
