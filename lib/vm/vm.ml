(* The execution engine for compiled programs.

   An interpreter for the stack machine of [Mcc_codegen.Instr], standing
   in for the paper's CVax hardware so that compiled Modula-2+ programs
   can actually run (examples, differential tests).  The machine model:

   - every assignable slot lives in some [v array]: a procedure frame, a
     module global frame, an array/record body, or a heap cell from NEW;
   - a location value [VLoc (a, i)] designates one such slot — this is
     what designator code computes and VAR parameters pass;
   - arrays and records are both [VArr]; pointers are [VCell] (a
     one-slot heap cell); Modula-2+ EXCEPTION values carry the stable
     identity of their declaring slot.

   All activations of a run share one growable evaluation stack.  Each
   activation records its base and owns only the slots above it, so
   underflow is checked against the base; a call copies its arguments
   from the caller's top slots straight into the callee's frame, and a
   returned value is left where the arguments were.

   Calls are OCaml recursion, so Modula-2+ exception propagation maps
   onto an OCaml exception unwinding interpreter frames.  TRY pushes a
   record (handler pc, absolute stack height) on a shared handler stack;
   each activation installs one OCaml handler, which either resumes
   dispatch at the innermost TRY's handler pc or cuts the stack back to
   the activation's base and unwinds further.

   Units are linked lazily, once per run, on their first call: each
   [Const] gets its value boxed, each global access its frame, and each
   call site its callee on its first call.  An unknown frame or missing
   callee still traps only when its instruction executes.

   Execution is metered by [fuel] so runaway programs fail cleanly in
   tests. *)

open Mcc_codegen
module V = Mcc_sem.Value

type v =
  | VInt of int
  | VReal of float
  | VBool of bool
  | VChar of char
  | VStr of string
  | VSet of int
  | VNil
  | VUninit
  | VArr of v array
  | VCell of v array (* heap cell from NEW: one slot *)
  | VLoc of v array * int
  | VProc of string
  | VExc of string
  | VMutex

exception Runtime_error of string
exception M2_exception of string
exception Halted

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let rec default_of (d : Tydesc.t) : v =
  match d with
  | Tydesc.DScalar -> VUninit
  | Tydesc.DPtr -> VNil
  | Tydesc.DProc -> VNil
  | Tydesc.DExc key -> VExc key
  | Tydesc.DMutex -> VMutex
  | Tydesc.DArr (n, e) -> VArr (Array.init n (fun _ -> default_of e))
  | Tydesc.DRec fs -> VArr (Array.map default_of fs)

let rec copy_value = function
  | VArr a -> VArr (Array.map copy_value a)
  | VStr s -> VArr (Array.init (String.length s) (fun i -> VChar s.[i]))
  | x -> x

let to_int = function
  | VInt n -> n
  | VChar c -> Char.code c
  | VBool b -> if b then 1 else 0
  | VStr s when String.length s = 1 -> Char.code s.[0] (* 'x' character literal *)
  | VUninit -> error "use of an uninitialized value"
  | v -> error "integer value expected, found %s" (match v with VReal _ -> "REAL" | _ -> "non-ordinal")

let to_real = function
  | VReal f -> f
  | VUninit -> error "use of an uninitialized value"
  | _ -> error "REAL value expected"

let to_bool = function
  | VBool b -> b
  | VUninit -> error "use of an uninitialized value"
  | _ -> error "BOOLEAN value expected"

let to_set = function
  | VSet m -> m
  | VUninit -> error "use of an uninitialized set"
  | _ -> error "set value expected"

let cmp_values a b =
  match (a, b) with
  | VReal x, VReal y -> compare x y
  | VStr x, VStr y -> compare x y
  | VChar x, VStr y when String.length y = 1 -> compare x y.[0]
  | VStr x, VChar y when String.length x = 1 -> compare x.[0] y
  | VSet x, VSet y -> compare x y
  | VExc x, VExc y -> compare x y
  | VBool x, VBool y -> compare x y
  | _ -> compare (to_int a) (to_int b)

let phys_eq a b =
  match (a, b) with
  | VCell x, VCell y -> x == y
  | VNil, VNil -> true
  | VNil, _ | _, VNil -> false
  | VProc x, VProc y -> x = y
  | _ -> error "pointer comparison on non-pointer values"

let relop_holds (r : Instr.relop) c =
  match r with
  | Instr.REq -> c = 0
  | Instr.RNe -> c <> 0
  | Instr.RLt -> c < 0
  | Instr.RLe -> c <= 0
  | Instr.RGt -> c > 0
  | Instr.RGe -> c >= 0

type status = Finished | Halt_called | Trap of string | Uncaught_exception of string

type result = { output : string; status : status; steps : int; store_digest : string }

(* A code unit linked for one run.  Each pc that names something outside
   the unit gets its operand resolved once: a [Const]'s value, a global
   access's frame (or [no_frame]), a call site's callee (or [unlinked]
   until its first call). *)
type linked = {
  unit : Cunit.t;
  consts : v array;
  globals : v array array;
  callees : linked array;
}

type state = {
  prog : Cunit.program;
  frames : (string, v array) Hashtbl.t;
  units : (string, linked) Hashtbl.t;  (* units linked so far, by key *)
  out : Buffer.t;
  mutable input : int list;
  mutable fuel : int;
  mutable steps : int;
  mutable stack : v array;  (* the evaluation stack all activations share *)
  mutable sp : int;  (* occupied slots of [stack] *)
  mutable handlers : int array;  (* TRY records: handler pc, stack height *)
  mutable hp : int;  (* occupied slots of [handlers] *)
}

let no_frame : v array = [| VUninit |]

let unlinked =
  {
    unit = { Cunit.u_key = ""; u_nparams = 0; u_nslots = 0; u_locals = []; u_code = [||] };
    consts = [||];
    globals = [||];
    callees = [||];
  }

let v_true = VBool true
let v_false = VBool false
let[@inline] vbool b = if b then v_true else v_false

let value_of_const : V.t -> v = function
  | V.VInt n -> VInt n
  | V.VReal f -> VReal f
  | V.VBool b -> vbool b
  | V.VChar c -> VChar c
  | V.VStr s -> VStr s
  | V.VSet m -> VSet m
  | V.VNil -> VNil

let link st (u : Cunit.t) =
  let code = u.Cunit.u_code in
  let n = Array.length code in
  let consts = Array.make n VUninit and globals = Array.make n no_frame in
  Array.iteri
    (fun pc i ->
      match i with
      | Instr.Const c -> consts.(pc) <- value_of_const c
      | Instr.LoadGlobal (f, _) | Instr.StoreGlobal (f, _) | Instr.GlobalAddr (f, _) -> (
          match Hashtbl.find_opt st.frames f with Some g -> globals.(pc) <- g | None -> ())
      | _ -> ())
    code;
  let l = { unit = u; consts; globals; callees = Array.make n unlinked } in
  Hashtbl.replace st.units u.Cunit.u_key l;
  l

let resolve st key =
  match Hashtbl.find_opt st.units key with
  | Some _ as l -> l
  | None -> Option.map (link st) (Cunit.find_unit st.prog key)

(* Bind the call site at [ipc] to the unit [key], or trap with
   [missing]. *)
let bind st l ipc key missing =
  match resolve st key with
  | Some c ->
      l.callees.(ipc) <- c;
      c
  | None -> error missing key

let[@inline] burn st =
  st.steps <- st.steps + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then error "execution fuel exhausted (possible infinite loop)"

let key_of l = l.unit.Cunit.u_key
let underflow l = error "evaluation stack underflow in %s" (key_of l)
let not_loc l = error "location expected on the stack in %s" (key_of l)

let double a fill =
  let n = Array.length a in
  let bigger = Array.make (2 * n) fill in
  Array.blit a 0 bigger 0 n;
  bigger

let[@inline] push st v =
  let sp = st.sp in
  if sp = Array.length st.stack then st.stack <- double st.stack VUninit;
  Array.unsafe_set st.stack sp v;
  st.sp <- sp + 1

(* Pop from the activation whose stack starts at [bp]. *)
let[@inline] pop st bp l =
  let sp = st.sp - 1 in
  if sp < bp then underflow l;
  st.sp <- sp;
  Array.unsafe_get st.stack sp

let push_handler st hpc =
  let hp = st.hp in
  if hp = Array.length st.handlers then st.handlers <- double st.handlers 0;
  st.handlers.(hp) <- hpc;
  st.handlers.(hp + 1) <- st.sp;
  st.hp <- hp + 2

let rec init_locals frame = function
  | [] -> ()
  | (slot, d) :: rest ->
      if slot < Array.length frame then frame.(slot) <- default_of d;
      init_locals frame rest

let rec drop_frames k chain =
  if k <= 0 then chain else match chain with [] -> [] | _ :: tl -> drop_frames (k - 1) tl

let[@inline] arg stack base nargs i =
  if i < nargs then Array.unsafe_get stack (base + i) else VUninit

(* A frame of [max 1 n] slots starting with the [nargs] values at
   [stack.(base)]; the small ones are built in place. *)
let new_frame stack base nargs n =
  match n with
  | 0 | 1 -> [| arg stack base nargs 0 |]
  | 2 -> [| arg stack base nargs 0; arg stack base nargs 1 |]
  | 3 -> [| arg stack base nargs 0; arg stack base nargs 1; arg stack base nargs 2 |]
  | 4 ->
      [| arg stack base nargs 0; arg stack base nargs 1; arg stack base nargs 2; arg stack base nargs 3 |]
  | n ->
      let frame = Array.make n VUninit in
      for i = 0 to min nargs n - 1 do
        frame.(i) <- Array.unsafe_get stack (base + i)
      done;
      frame

(* Activate [callee] on the top [nargs] stack slots, which become its
   first frame slots.  [chain] is the static chain: the frames of the
   lexically enclosing procedures, innermost first (empty for
   module-level procedures and the module body).  A returned value is
   left on top of the stack. *)
let rec call st callee nargs chain =
  let u = callee.unit in
  let base = st.sp - nargs in
  let frame = new_frame st.stack base nargs u.Cunit.u_nslots in
  st.sp <- base;
  init_locals frame u.Cunit.u_locals;
  run_from st callee frame chain base st.hp 0

(* Run an activation from [pc].  Its operands sit above [bp] on the
   shared stack and its TRY records above [hbase]; an exception either
   resumes it at the innermost handler or unwinds it to its height. *)
and run_from st l frame chain bp hbase pc =
  match dispatch st l frame chain bp hbase pc with
  | () -> ()
  | exception M2_exception key ->
      if st.hp > hbase then begin
        let h = st.hp - 2 in
        st.hp <- h;
        if st.sp > st.handlers.(h + 1) then st.sp <- st.handlers.(h + 1);
        push st (VExc key);
        run_from st l frame chain bp hbase st.handlers.(h)
      end
      else begin
        st.sp <- bp;
        raise (M2_exception key)
      end

and dispatch st l frame chain bp hbase pc0 =
  let code = l.unit.Cunit.u_code in
  let len = Array.length code in
  let pc = ref pc0 in
  let running = ref true in
  while !running do
    let ipc = !pc in
    if ipc < 0 || ipc >= len then error "pc out of range in %s" (key_of l);
    burn st;
    let i = Array.unsafe_get code ipc in
    pc := ipc + 1;
    match i with
    | Instr.Const _ -> push st (Array.unsafe_get l.consts ipc)
    | Instr.Dup ->
        if st.sp <= bp then error "dup on empty stack";
        push st (Array.unsafe_get st.stack (st.sp - 1))
    | Instr.Pop -> ignore (pop st bp l)
    | Instr.CopyVal -> push st (copy_value (pop st bp l))
    | Instr.StrToArr n -> (
        match pop st bp l with
        | VStr s ->
            push st (VArr (Array.init n (fun i -> VChar (if i < String.length s then s.[i] else '\000'))))
        | VArr a ->
            (* assigning a char array to a char array of the same shape *)
            push st (copy_value (VArr a))
        | _ -> error "string expected")
    | Instr.LoadLocal n -> push st frame.(n)
    | Instr.StoreLocal n -> frame.(n) <- pop st bp l
    | Instr.LocalAddr n -> push st (VLoc (frame, n))
    | Instr.UplevelAddr (hops, slot) -> (
        match List.nth_opt chain (hops - 1) with
        | Some f -> push st (VLoc (f, slot))
        | None -> error "static chain underflow in %s" (key_of l))
    | Instr.LoadGlobal (f, n) ->
        let g = Array.unsafe_get l.globals ipc in
        if g == no_frame then error "reference to unknown module frame %s" f;
        push st g.(n)
    | Instr.StoreGlobal (f, n) ->
        let v = pop st bp l in
        let g = Array.unsafe_get l.globals ipc in
        if g == no_frame then error "reference to unknown module frame %s" f;
        g.(n) <- v
    | Instr.GlobalAddr (f, n) ->
        let g = Array.unsafe_get l.globals ipc in
        if g == no_frame then error "reference to unknown module frame %s" f;
        push st (VLoc (g, n))
    | Instr.FieldAddr n -> (
        match pop st bp l with
        | VLoc (a, i) -> (
            match a.(i) with
            | VArr fields -> push st (VLoc (fields, n))
            | VUninit -> error "field access on an uninitialized record"
            | _ -> error "record expected for field access")
        | _ -> not_loc l)
    | Instr.LoadField n -> (
        match pop st bp l with
        | VArr fields -> push st fields.(n)
        | _ -> error "record expected for field load")
    | Instr.IndexAddr (lo, hi) -> (
        let idx = to_int (pop st bp l) in
        match pop st bp l with
        | VLoc (a, i) -> (
            if idx < lo || idx > hi then error "array index %d out of range [%d..%d]" idx lo hi;
            match a.(i) with
            | VArr elems -> push st (VLoc (elems, idx - lo))
            | VUninit -> error "indexing an uninitialized array"
            | _ -> error "array expected for indexing")
        | _ -> not_loc l)
    | Instr.IndexOpenAddr -> (
        let idx = to_int (pop st bp l) in
        match pop st bp l with
        | VLoc (a, i) -> (
            match a.(i) with
            | VArr elems ->
                if idx < 0 || idx >= Array.length elems then
                  error "open array index %d out of range [0..%d]" idx (Array.length elems - 1);
                push st (VLoc (elems, idx))
            | VStr s ->
                if idx < 0 || idx >= String.length s then error "string index %d out of range" idx;
                (* strings are immutable: materialize a cell for reading *)
                push st (VLoc ([| VChar s.[idx] |], 0))
            | _ -> error "array expected for open indexing")
        | _ -> not_loc l)
    | Instr.LoadElem (lo, hi) -> (
        let idx = to_int (pop st bp l) in
        match pop st bp l with
        | VArr elems ->
            if idx < lo || idx > hi then error "array index %d out of range [%d..%d]" idx lo hi;
            push st elems.(idx - lo)
        | _ -> error "array expected")
    | Instr.LoadElemOpen -> (
        let idx = to_int (pop st bp l) in
        match pop st bp l with
        | VArr elems ->
            if idx < 0 || idx >= Array.length elems then error "open array index out of range";
            push st elems.(idx)
        | VStr s ->
            if idx < 0 || idx >= String.length s then error "string index out of range";
            push st (VChar s.[idx])
        | _ -> error "array expected")
    | Instr.DerefAddr -> (
        match pop st bp l with
        | VCell a -> push st (VLoc (a, 0))
        | VNil -> error "NIL dereference"
        | VUninit -> error "dereference of an uninitialized pointer"
        | _ -> error "pointer expected for dereference")
    | Instr.LoadInd -> (
        match pop st bp l with VLoc (a, i) -> push st a.(i) | _ -> not_loc l)
    | Instr.StoreInd -> (
        let value = pop st bp l in
        match pop st bp l with VLoc (a, i) -> a.(i) <- value | _ -> not_loc l)
    | Instr.IncInd | Instr.DecInd -> (
        let delta = to_int (pop st bp l) in
        let delta = if i = Instr.DecInd then -delta else delta in
        match pop st bp l with
        | VLoc (a, idx) -> (
            match a.(idx) with
            | VInt n -> a.(idx) <- VInt (n + delta)
            | VChar c ->
                let n = Char.code c + delta in
                if n < 0 || n > 255 then error "CHAR increment out of range";
                a.(idx) <- VChar (Char.chr n)
            | VStr s when String.length s = 1 ->
                (* a character literal was stored here *)
                let n = Char.code s.[0] + delta in
                if n < 0 || n > 255 then error "CHAR increment out of range";
                a.(idx) <- VChar (Char.chr n)
            | VUninit -> error "INC/DEC of an uninitialized variable"
            | _ -> error "INC/DEC requires an ordinal variable")
        | _ -> not_loc l)
    | Instr.InclInd lo | Instr.ExclInd lo -> (
        let e = to_int (pop st bp l) - lo in
        match pop st bp l with
        | VLoc (a, idx) -> (
            if e < 0 || e >= 62 then error "set element out of range";
            match a.(idx) with
            | VSet m ->
                a.(idx) <-
                  VSet (match i with Instr.InclInd _ -> m lor (1 lsl e) | _ -> m land lnot (1 lsl e))
            | VUninit -> (
                match i with
                | Instr.InclInd _ -> a.(idx) <- VSet (1 lsl e)
                | _ -> error "EXCL on an uninitialized set")
            | _ -> error "INCL/EXCL requires a set variable")
        | _ -> not_loc l)
    | Instr.NewInd d -> (
        match pop st bp l with
        | VLoc (a, idx) -> a.(idx) <- VCell [| default_of d |]
        | _ -> not_loc l)
    | Instr.DisposeInd -> (
        match pop st bp l with VLoc (a, idx) -> a.(idx) <- VNil | _ -> not_loc l)
    | Instr.AddI ->
        let b = to_int (pop st bp l) in
        let a = to_int (pop st bp l) in
        push st (VInt (a + b))
    | Instr.SubI ->
        let b = to_int (pop st bp l) in
        let a = to_int (pop st bp l) in
        push st (VInt (a - b))
    | Instr.MulI ->
        let b = to_int (pop st bp l) in
        let a = to_int (pop st bp l) in
        push st (VInt (a * b))
    | Instr.DivI ->
        let b = to_int (pop st bp l) in
        let a = to_int (pop st bp l) in
        if b = 0 then error "integer division by zero";
        push st (VInt (a / b))
    | Instr.ModI ->
        let b = to_int (pop st bp l) in
        let a = to_int (pop st bp l) in
        if b = 0 then error "MOD by zero";
        push st (VInt (((a mod b) + abs b) mod abs b))
    | Instr.NegI -> push st (VInt (-to_int (pop st bp l)))
    | Instr.AddR ->
        let b = to_real (pop st bp l) in
        let a = to_real (pop st bp l) in
        push st (VReal (a +. b))
    | Instr.SubR ->
        let b = to_real (pop st bp l) in
        let a = to_real (pop st bp l) in
        push st (VReal (a -. b))
    | Instr.MulR ->
        let b = to_real (pop st bp l) in
        let a = to_real (pop st bp l) in
        push st (VReal (a *. b))
    | Instr.DivR ->
        let b = to_real (pop st bp l) in
        let a = to_real (pop st bp l) in
        if b = 0.0 then error "real division by zero";
        push st (VReal (a /. b))
    | Instr.NegR -> push st (VReal (-.to_real (pop st bp l)))
    | Instr.NotB -> push st (vbool (not (to_bool (pop st bp l))))
    | Instr.Cmp r ->
        let b = pop st bp l in
        let a = pop st bp l in
        push st (vbool (relop_holds r (cmp_values a b)))
    | Instr.CmpPtr r ->
        let b = pop st bp l in
        let a = pop st bp l in
        let eq = phys_eq a b in
        push st
          (vbool (match r with Instr.REq -> eq | Instr.RNe -> not eq | _ -> error "bad pointer relop"))
    | Instr.SetUnion ->
        let b = to_set (pop st bp l) in
        let a = to_set (pop st bp l) in
        push st (VSet (a lor b))
    | Instr.SetDiff ->
        let b = to_set (pop st bp l) in
        let a = to_set (pop st bp l) in
        push st (VSet (a land lnot b))
    | Instr.SetInter ->
        let b = to_set (pop st bp l) in
        let a = to_set (pop st bp l) in
        push st (VSet (a land b))
    | Instr.SetSymDiff ->
        let b = to_set (pop st bp l) in
        let a = to_set (pop st bp l) in
        push st (VSet (a lxor b))
    | Instr.SetLe ->
        let b = to_set (pop st bp l) in
        let a = to_set (pop st bp l) in
        push st (vbool (a land b = a))
    | Instr.SetGe ->
        let b = to_set (pop st bp l) in
        let a = to_set (pop st bp l) in
        push st (vbool (a lor b = a))
    | Instr.SetIn lo ->
        let m = to_set (pop st bp l) in
        let e = to_int (pop st bp l) - lo in
        push st (vbool (e >= 0 && e < 62 && m land (1 lsl e) <> 0))
    | Instr.SetAdd1 lo ->
        let e = to_int (pop st bp l) - lo in
        let m = to_set (pop st bp l) in
        if e < 0 || e >= 62 then error "set element out of range";
        push st (VSet (m lor (1 lsl e)))
    | Instr.SetAddRange lo ->
        let hi' = to_int (pop st bp l) - lo in
        let lo' = to_int (pop st bp l) - lo in
        let m = ref (to_set (pop st bp l)) in
        if lo' < 0 || hi' >= 62 then error "set range out of bounds";
        for e = lo' to hi' do
          m := !m lor (1 lsl e)
        done;
        push st (VSet !m)
    | Instr.RangeCheck (lo, hi) ->
        if st.sp <= bp then error "range check on empty stack";
        let n = to_int (Array.unsafe_get st.stack (st.sp - 1)) in
        if n < lo || n > hi then error "value %d out of range [%d..%d]" n lo hi
    | Instr.CaseError -> error "no CASE label matched the selector"
    | Instr.NoReturn -> error "function %s did not execute RETURN" (key_of l)
    | Instr.Jump t -> pc := t
    | Instr.JumpIf t -> if to_bool (pop st bp l) then pc := t
    | Instr.JumpIfNot t -> if not (to_bool (pop st bp l)) then pc := t
    | Instr.Call (key, n, link) ->
        if st.sp - bp < n then underflow l;
        let callee_chain =
          match link with
          | Instr.LinkNone -> []
          | Instr.LinkSelf -> frame :: chain
          | Instr.LinkUp k -> drop_frames (k - 1) chain
        in
        let callee = Array.unsafe_get l.callees ipc in
        let callee =
          if callee != unlinked then callee
          else bind st l ipc key "call to external procedure %s (not compiled in this unit)"
        in
        call st callee n callee_chain
    | Instr.CallPtr n -> (
        (* the callee value is computed before the arguments *)
        if st.sp - bp <= n then underflow l;
        match Array.unsafe_get st.stack (st.sp - n - 1) with
        | VProc key ->
            (* procedure values are module-level by construction *)
            let callee = Array.unsafe_get l.callees ipc in
            let callee =
              if callee != unlinked && String.equal (key_of callee) key then callee
              else bind st l ipc key "call through procedure value to external %s"
            in
            (* drop the callee value from under the arguments *)
            let base = st.sp - n in
            Array.blit st.stack base st.stack (base - 1) n;
            st.sp <- st.sp - 1;
            call st callee n []
        | VNil -> error "call through NIL procedure value"
        | _ -> error "procedure value expected")
    | Instr.ProcConst key -> push st (VProc key)
    | Instr.Ret ->
        st.sp <- bp;
        st.hp <- hbase;
        running := false
    | Instr.RetVal ->
        let r = pop st bp l in
        st.stack.(bp) <- r;
        st.sp <- bp + 1;
        st.hp <- hbase;
        running := false
    | Instr.Builtin (op, _) -> builtin st bp l op
    | Instr.Try hpc -> push_handler st hpc
    | Instr.EndTry -> if st.hp <= hbase then error "EndTry without Try" else st.hp <- st.hp - 2
    | Instr.RaiseI | Instr.ReRaise -> (
        match pop st bp l with
        | VExc key -> raise (M2_exception key)
        | VUninit -> error "RAISE of an uninitialized exception"
        | _ -> error "EXCEPTION value expected for RAISE")
  done

and builtin st bp l op =
  let out = st.out in
  match op with
  | Instr.OWriteInt -> Buffer.add_string out (string_of_int (to_int (pop st bp l)))
  | Instr.OWriteLn -> Buffer.add_char out '\n'
  | Instr.OWriteString -> (
      match pop st bp l with
      | VStr s -> Buffer.add_string out s
      | VArr a ->
          Array.iter
            (function
              | VChar '\000' -> ()
              | VChar c -> Buffer.add_char out c
              | _ -> error "character array expected for WriteString")
            a
      | _ -> error "string expected for WriteString")
  | Instr.OWriteChar -> (
      match pop st bp l with
      | VChar c -> Buffer.add_char out c
      | VStr s when String.length s = 1 -> Buffer.add_char out s.[0]
      | v -> Buffer.add_char out (Char.chr (to_int v land 255)))
  | Instr.OWriteReal -> Buffer.add_string out (Printf.sprintf "%.6g" (to_real (pop st bp l)))
  | Instr.OReadInt -> (
      match pop st bp l with
      | VLoc (a, i) -> (
          match st.input with
          | x :: rest ->
              st.input <- rest;
              a.(i) <- VInt x
          | [] -> error "ReadInt: input exhausted")
      | _ -> error "ReadInt requires a variable")
  | Instr.OHalt -> raise Halted
  | Instr.OSqrt -> push st (VReal (sqrt (to_real (pop st bp l))))
  | Instr.OSin -> push st (VReal (sin (to_real (pop st bp l))))
  | Instr.OCos -> push st (VReal (cos (to_real (pop st bp l))))
  | Instr.OLn -> push st (VReal (log (to_real (pop st bp l))))
  | Instr.OExp -> push st (VReal (exp (to_real (pop st bp l))))
  | Instr.OCap -> (
      match pop st bp l with
      | VChar c -> push st (VChar (Char.uppercase_ascii c))
      | VStr s when String.length s = 1 -> push st (VChar (Char.uppercase_ascii s.[0]))
      | _ -> error "CAP requires a CHAR")
  | Instr.OOddI -> push st (vbool (to_int (pop st bp l) land 1 = 1))
  | Instr.OAbsI -> push st (VInt (abs (to_int (pop st bp l))))
  | Instr.OAbsR -> push st (VReal (abs_float (to_real (pop st bp l))))
  | Instr.OIntToReal -> push st (VReal (float_of_int (to_int (pop st bp l))))
  | Instr.ORealToInt -> push st (VInt (int_of_float (to_real (pop st bp l))))
  | Instr.OIntToChar -> push st (VChar (Char.chr (to_int (pop st bp l) land 255)))
  | Instr.OOrdOf -> push st (VInt (to_int (pop st bp l)))
  | Instr.OHighOf -> (
      match pop st bp l with
      | VArr a -> push st (VInt (Array.length a - 1))
      | VStr s -> push st (VInt (String.length s - 1))
      | _ -> error "HIGH requires an array")

(* ------------------------------------------------------------------ *)

(* Canonical rendering of a value for the final-store digest.  Depth is
   capped so pointer structures built by NEW (which can in principle be
   cyclic) always terminate; two stores digest equally iff they render
   equally down to the cap. *)
let rec render_v buf depth v =
  if depth <= 0 then Buffer.add_char buf '#'
  else
    match v with
    | VInt i -> Buffer.add_string buf (string_of_int i)
    | VReal r -> Buffer.add_string buf (Printf.sprintf "%h" r)
    | VBool b -> Buffer.add_string buf (if b then "T" else "F")
    | VChar c -> Buffer.add_string buf (Printf.sprintf "'%d'" (Char.code c))
    | VStr s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf s;
        Buffer.add_char buf '"'
    | VSet s -> Buffer.add_string buf (Printf.sprintf "{%d}" s)
    | VNil -> Buffer.add_string buf "nil"
    | VUninit -> Buffer.add_char buf '?'
    | VArr a | VCell a ->
        Buffer.add_char buf '[';
        Array.iter
          (fun x ->
            render_v buf (depth - 1) x;
            Buffer.add_char buf ' ')
          a;
        Buffer.add_char buf ']'
    | VLoc (a, i) ->
        Buffer.add_string buf "loc:";
        Buffer.add_string buf (string_of_int i);
        Buffer.add_char buf '@';
        Buffer.add_string buf (string_of_int (Array.length a))
    | VProc p ->
        Buffer.add_string buf "proc:";
        Buffer.add_string buf p
    | VExc e ->
        Buffer.add_string buf "exc:";
        Buffer.add_string buf e
    | VMutex -> Buffer.add_string buf "mutex"

(* MD5 over the canonical rendering of every module global frame, sorted
   by frame key — the "final store" the conformance oracle compares
   across compilers (procedure frames are gone by termination). *)
let store_digest_of frames =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) frames [] in
  let buf = Buffer.create 512 in
  List.iter
    (fun key ->
      Buffer.add_string buf key;
      Buffer.add_char buf '=';
      render_v buf 8 (VArr (Hashtbl.find frames key));
      Buffer.add_char buf '\n')
    (List.sort compare keys);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run ?(fuel = 50_000_000) ?(input = []) (prog : Cunit.program) : result =
  let st =
    {
      prog;
      frames = Hashtbl.create 16;
      units = Hashtbl.create 64;
      out = Buffer.create 256;
      input;
      fuel;
      steps = 0;
      stack = Array.make 1024 VUninit;
      sp = 0;
      handlers = Array.make 64 0;
      hp = 0;
    }
  in
  List.iter
    (fun (key, slots, size) ->
      let frame = Array.make (max 1 size) VUninit in
      List.iter (fun (slot, d) -> if slot < size then frame.(slot) <- default_of d) slots;
      Hashtbl.replace st.frames key frame)
    prog.Cunit.p_frames;
  let status =
    try
      (* module bodies run in initialization order: imported modules
         before their importers, the main module last *)
      List.iter
        (fun key ->
          match resolve st key with
          | None -> error "init unit %s missing" key
          | Some l ->
              call st l 0 [];
              st.sp <- 0)
        prog.Cunit.p_init;
      Finished
    with
    | Halted -> Halt_called
    | Runtime_error msg -> Trap msg
    | M2_exception key -> Uncaught_exception key
  in
  {
    output = Buffer.contents st.out;
    status;
    steps = st.steps;
    store_digest = store_digest_of st.frames;
  }

let status_to_string = function
  | Finished -> "finished"
  | Halt_called -> "halted"
  | Trap m -> "trap: " ^ m
  | Uncaught_exception k -> "uncaught exception " ^ k
