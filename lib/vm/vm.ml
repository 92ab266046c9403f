(* The execution engine for compiled programs.

   Runs the stack machine of [Mcc_codegen.Instr], standing in for the
   paper's CVax hardware so that compiled Modula-2+ programs can actually
   run (examples, differential tests).  The machine model:

   - every assignable slot lives in some [v array]: a procedure frame, a
     module global frame, an array/record body, or a heap cell from NEW;
   - a location value [VLoc (a, i)] designates one such slot — this is
     what designator code computes and VAR parameters pass;
   - arrays and records are both [VArr]; pointers are [VCell] (a
     one-slot heap cell); Modula-2+ EXCEPTION values carry the stable
     identity of their declaring slot.

   Code is not interpreted one instruction at a time.  Each unit is
   translated once per run, lazily on its first call: its code is split
   into basic blocks, each block's stack is run symbolically to rebuild
   the expression trees of the values it computes, and each tree is
   compiled into nested OCaml closures, so operands flow through return
   values instead of through the stack (closure generation after Feeley
   and Lapalme, "Using closures for code generation", 1987).  The common
   shapes (leaf operands, elements and fields reached from a variable,
   compare-and-branch, stores) compile to fused closures that build no
   location.  A block ends by tail-calling the next one.

   The translation keeps everything a run can observe:
   - every instruction burns one step of [fuel], in instruction order: a
     tree runs its operands, lower first, then burns its own step;
   - a value is computed where its instruction stands relative to every
     effect: an instruction with an effect (a store, call, builtin, TRY,
     RAISE or jump) first flushes the values computed before it that it
     does not consume onto the evaluation stack, in instruction order;
   - an unknown frame, a missing callee, a jump out of the code and a
     stack underflow trap only when their instruction executes.

   All activations of a run share one growable evaluation stack, which
   carries only the values that cross an effect or a block boundary:
   short-circuit joins, a handler's exception value, call arguments and
   results.  Each activation records its base and owns only the slots
   above it, so underflow is checked against the base; a call copies its
   arguments from the caller's top slots straight into the callee's
   frame, and a returned value is left where the arguments were.

   Calls are OCaml recursion, so Modula-2+ exception propagation maps
   onto an OCaml exception unwinding activations.  TRY pushes a record
   (handler pc, absolute stack height) on a shared handler stack; each
   activation installs one OCaml handler, which either resumes it at the
   innermost TRY's handler block or cuts the stack back to the
   activation's base and unwinds further.

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

(* Activations past this depth trap: each is an OCaml call, so a
   program recursing without bound would otherwise grow the native
   stack until its fuel runs out. *)
let max_depth = 100_000

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

(* One activation: its frame, its static chain (the frames of the
   lexically enclosing procedures, innermost first; empty for
   module-level procedures and module bodies), and the heights of the
   shared evaluation and handler stacks at its entry. *)
type act = { frame : v array; chain : v array list; bp : int; hbase : int }

(* A unit translated for one run.  [blocks.(pc)] runs the activation
   from the basic block that starts at [pc] until it returns.
   [blocks.(len)] traps: every jump or handler target outside the code,
   and falling off its end, lead there. *)
type linked = {
  key : string;
  nslots : int;
  locals : (int * Tydesc.t) list;
  blocks : (act -> unit) array;
}

type state = {
  prog : Cunit.program;
  frames : (string, v array) Hashtbl.t;
  units : (string, linked) Hashtbl.t;  (* units translated so far, by key *)
  out : Buffer.t;
  mutable input : int list;
  mutable fuel : int;  (* steps left: every instruction burns one *)
  mutable stack : v array;  (* the evaluation stack all activations share *)
  mutable sp : int;  (* occupied slots of [stack] *)
  mutable handlers : int array;  (* TRY records: handler pc, stack height *)
  mutable hp : int;  (* occupied slots of [handlers] *)
  mutable ix : int;  (* the slot of the place evaluated last (see [place]) *)
  mutable depth : int;  (* activations running *)
}

let unlinked = { key = ""; nslots = 0; locals = []; blocks = [||] }
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

let[@inline] burn st =
  let fuel = st.fuel - 1 in
  st.fuel <- fuel;
  if fuel <= 0 then error "execution fuel exhausted (possible infinite loop)"

let underflow key = error "evaluation stack underflow in %s" key
let not_loc key = error "location expected on the stack in %s" key

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

(* Pop from the activation [c] of unit [key]. *)
let[@inline] pop st c key =
  let sp = st.sp - 1 in
  if sp < c.bp then underflow key;
  st.sp <- sp;
  Array.unsafe_get st.stack sp

(* Pop the lower operand of a two-operand instruction whose upper
   operand [y] is already in hand.  The instruction checks [y] before it
   pops again, so on underflow [check y] runs first. *)
let[@inline] pop_below st c key check y =
  let sp = st.sp - 1 in
  if sp < c.bp then begin
    check y;
    underflow key
  end;
  st.sp <- sp;
  Array.unsafe_get st.stack sp

let no_check (_ : v) = ()
let int_check y = ignore (to_int y)
let real_check y = ignore (to_real y)
let set_check y = ignore (to_set y)

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

(* ------------------------------------------------------------------ *)
(* Value operations.  Each takes its operands lower first and checks
   them in the order its instruction pops them: upper first. *)

let str_to_arr n = function
  | VStr s -> VArr (Array.init n (fun i -> VChar (if i < String.length s then s.[i] else '\000')))
  | VArr a ->
      (* assigning a char array to a char array of the same shape *)
      copy_value (VArr a)
  | _ -> error "string expected"

let index_open_addr key loc iv =
  let idx = to_int iv in
  match loc with
  | VLoc (a, i) -> (
      match a.(i) with
      | VArr elems ->
          if idx < 0 || idx >= Array.length elems then
            error "open array index %d out of range [0..%d]" idx (Array.length elems - 1);
          VLoc (elems, idx)
      | VStr s ->
          if idx < 0 || idx >= String.length s then error "string index %d out of range" idx;
          (* strings are immutable: materialize a cell for reading *)
          VLoc ([| VChar s.[idx] |], 0)
      | _ -> error "array expected for open indexing")
  | _ -> not_loc key

let load_elem lo hi av iv =
  let idx = to_int iv in
  match av with
  | VArr elems ->
      if idx < lo || idx > hi then error "array index %d out of range [%d..%d]" idx lo hi;
      elems.(idx - lo)
  | _ -> error "array expected"

let load_elem_open av iv =
  let idx = to_int iv in
  match av with
  | VArr elems ->
      if idx < 0 || idx >= Array.length elems then error "open array index out of range";
      elems.(idx)
  | VStr s ->
      if idx < 0 || idx >= String.length s then error "string index out of range";
      VChar s.[idx]
  | _ -> error "array expected"

(* The slot [a.(i)] as an array to index or a record to select from;
   the element or field slot is left in [st.ix]. *)
let[@inline] element st lo hi a i iv =
  let idx = to_int iv in
  if idx < lo || idx > hi then error "array index %d out of range [%d..%d]" idx lo hi;
  match a.(i) with
  | VArr elems ->
      st.ix <- idx - lo;
      elems
  | VUninit -> error "indexing an uninitialized array"
  | _ -> error "array expected for indexing"

let[@inline] field st n a i =
  match a.(i) with
  | VArr fields ->
      st.ix <- n;
      fields
  | VUninit -> error "field access on an uninitialized record"
  | _ -> error "record expected for field access"

let[@inline] deref st = function
  | VCell a ->
      st.ix <- 0;
      a
  | VNil -> error "NIL dereference"
  | VUninit -> error "dereference of an uninitialized pointer"
  | _ -> error "pointer expected for dereference"

(* INC/DEC of the slot [a.(i)] by [sign] times [dv]. *)
let inc_slot sign a i dv =
  let delta = sign * to_int dv in
  match a.(i) with
  | VInt n -> a.(i) <- VInt (n + delta)
  | VChar c ->
      let n = Char.code c + delta in
      if n < 0 || n > 255 then error "CHAR increment out of range";
      a.(i) <- VChar (Char.chr n)
  | VStr s when String.length s = 1 ->
      (* a character literal was stored here *)
      let n = Char.code s.[0] + delta in
      if n < 0 || n > 255 then error "CHAR increment out of range";
      a.(i) <- VChar (Char.chr n)
  | VUninit -> error "INC/DEC of an uninitialized variable"
  | _ -> error "INC/DEC requires an ordinal variable"

let incl_ind key ~incl lo loc ev =
  let e = to_int ev - lo in
  match loc with
  | VLoc (a, idx) -> (
      if e < 0 || e >= 62 then error "set element out of range";
      match a.(idx) with
      | VSet m -> a.(idx) <- VSet (if incl then m lor (1 lsl e) else m land lnot (1 lsl e))
      | VUninit -> if incl then a.(idx) <- VSet (1 lsl e) else error "EXCL on an uninitialized set"
      | _ -> error "INCL/EXCL requires a set variable")
  | _ -> not_loc key

type arith = Add | Sub | Mul | Div | Mod

let[@inline] apply op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div ->
      if b = 0 then error "integer division by zero";
      a / b
  | Mod ->
      if b = 0 then error "MOD by zero";
      ((a mod b) + abs b) mod abs b

let[@inline] arith op x y =
  match (x, y) with
  | VInt a, VInt b -> VInt (apply op a b)
  | _ ->
      let b = to_int y in
      let a = to_int x in
      VInt (apply op a b)

(* Cmp on ordered values, CmpPtr on pointers. *)
type rel = Ord of Instr.relop | Ptr of Instr.relop

let[@inline] holds rel x y =
  match rel with
  | Ord r -> (
      match (x, y) with
      | VInt a, VInt b -> (
          match r with
          | Instr.REq -> a = b
          | Instr.RNe -> a <> b
          | Instr.RLt -> a < b
          | Instr.RLe -> a <= b
          | Instr.RGt -> a > b
          | Instr.RGe -> a >= b)
      | _ -> relop_holds r (cmp_values x y))
  | Ptr r -> (
      let eq = phys_eq x y in
      match r with Instr.REq -> eq | Instr.RNe -> not eq | _ -> error "bad pointer relop")

let real_op (f : float -> float -> float) x y =
  let b = to_real y in
  let a = to_real x in
  VReal (f a b)

let set_op (f : int -> int -> int) x y =
  let b = to_set y in
  let a = to_set x in
  VSet (f a b)

let set_rel (f : int -> int -> bool) x y =
  let b = to_set y in
  let a = to_set x in
  vbool (f a b)

let set_add_range lo m l h =
  let hi' = to_int h - lo in
  let lo' = to_int l - lo in
  let m = ref (to_set m) in
  if lo' < 0 || hi' >= 62 then error "set range out of bounds";
  for e = lo' to hi' do
    m := !m lor (1 lsl e)
  done;
  VSet !m

let raise_exc = function
  | VExc key -> raise (M2_exception key)
  | VUninit -> error "RAISE of an uninitialized exception"
  | _ -> error "EXCEPTION value expected for RAISE"

(* The pure builtins: functions of their one operand. *)
let pure_builtin : Instr.builtin_op -> (v -> v) option = function
  | Instr.OSqrt -> Some (fun x -> VReal (sqrt (to_real x)))
  | Instr.OSin -> Some (fun x -> VReal (sin (to_real x)))
  | Instr.OCos -> Some (fun x -> VReal (cos (to_real x)))
  | Instr.OLn -> Some (fun x -> VReal (log (to_real x)))
  | Instr.OExp -> Some (fun x -> VReal (exp (to_real x)))
  | Instr.OCap ->
      Some
        (function
        | VChar c -> VChar (Char.uppercase_ascii c)
        | VStr s when String.length s = 1 -> VChar (Char.uppercase_ascii s.[0])
        | _ -> error "CAP requires a CHAR")
  | Instr.OOddI -> Some (fun x -> vbool (to_int x land 1 = 1))
  | Instr.OAbsI -> Some (fun x -> VInt (abs (to_int x)))
  | Instr.OAbsR -> Some (fun x -> VReal (abs_float (to_real x)))
  | Instr.OIntToReal -> Some (fun x -> VReal (float_of_int (to_int x)))
  | Instr.ORealToInt -> Some (fun x -> VInt (int_of_float (to_real x)))
  | Instr.OIntToChar -> Some (fun x -> VChar (Char.chr (to_int x land 255)))
  | Instr.OOrdOf -> Some (fun x -> VInt (to_int x))
  | Instr.OHighOf ->
      Some
        (function
        | VArr a -> VInt (Array.length a - 1)
        | VStr s -> VInt (String.length s - 1)
        | _ -> error "HIGH requires an array")
  | Instr.OWriteInt | Instr.OWriteLn | Instr.OWriteString | Instr.OWriteChar | Instr.OWriteReal
  | Instr.OReadInt | Instr.OHalt ->
      None

(* The builtins with an effect that take one operand. *)
let effect_builtin st (op : Instr.builtin_op) x =
  let out = st.out in
  match op with
  | Instr.OWriteInt -> Buffer.add_string out (string_of_int (to_int x))
  | Instr.OWriteString -> (
      match x with
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
      match x with
      | VChar c -> Buffer.add_char out c
      | VStr s when String.length s = 1 -> Buffer.add_char out s.[0]
      | v -> Buffer.add_char out (Char.chr (to_int v land 255)))
  | Instr.OWriteReal -> Buffer.add_string out (Printf.sprintf "%.6g" (to_real x))
  | Instr.OReadInt -> (
      match x with
      | VLoc (a, i) -> (
          match st.input with
          | n :: rest ->
              st.input <- rest;
              a.(i) <- VInt n
          | [] -> error "ReadInt: input exhausted")
      | _ -> error "ReadInt requires a variable")
  | _ -> invalid_arg "Vm.effect_builtin"

(* ------------------------------------------------------------------ *)
(* Expression trees.  Running a block symbolically rebuilds the trees
   of the values it computes; each node is one instruction.  A tree
   runs its operands, lower first, then burns its own instruction's
   step and applies it, so steps burn in instruction order.  The
   constructors other than [Code] are the shapes compiled into fused
   closures; everything else is compiled as it is rebuilt. *)

type expr =
  | Const of v  (* Const, ProcConst, and GlobalAddr of an existing frame *)
  | Local of int  (* LoadLocal *)
  | Global of v array * int  (* LoadGlobal of an existing frame *)
  | Laddr of int  (* LocalAddr *)
  | Arith of arith * expr * expr  (* AddI, SubI, MulI, DivI, ModI *)
  | Rel of rel * expr * expr  (* Cmp, CmpPtr *)
  | Elem of int * int * expr * expr  (* IndexAddr of a place *)
  | Field of int * expr  (* FieldAddr of a place *)
  | Deref of expr  (* DerefAddr *)
  | Ind of expr  (* LoadInd of a place *)
  | Code of (act -> v)

(* A place is a tree whose value is a location by construction, so it
   can be compiled to yield the slot's array (the slot index goes to
   [st.ix]) without building the location. *)
let is_place = function Const (VLoc _) | Laddr _ | Elem _ | Field _ | Deref _ -> true | _ -> false

(* A leaf's value is read in place by [read], without a call. *)
let is_leaf = function Const _ | Local _ | Global _ -> true | _ -> false

let[@inline] read st c = function
  | Const v ->
      burn st;
      v
  | Local n ->
      burn st;
      c.frame.(n)
  | Global (g, n) ->
      burn st;
      g.(n)
  | _ -> invalid_arg "Vm.read"

(* Effects.  A block's effects run in instruction order; [Push] is a
   value that crosses into a later effect or block on the shared
   stack. *)
type effect =
  | Push of expr
  | Store of expr * expr  (* StoreInd to a place *)
  | Set_local of int * expr  (* StoreLocal *)
  | Set_global of v array * int * expr  (* StoreGlobal to an existing frame *)
  | Inc of int * expr * expr  (* IncInd (1) or DecInd (-1) of a place *)
  | Do of (act -> unit)

let rec compile st e : act -> v =
  match e with
  | Const v ->
      fun _ ->
        burn st;
        v
  | Local n ->
      fun c ->
        burn st;
        c.frame.(n)
  | Global (g, n) ->
      fun _ ->
        burn st;
        g.(n)
  | Laddr n ->
      fun c ->
        burn st;
        VLoc (c.frame, n)
  | Arith (op, x, y) -> (
      match (is_leaf x, is_leaf y) with
      | true, true ->
          fun c ->
            let vx = read st c x in
            let vy = read st c y in
            burn st;
            arith op vx vy
      | false, true ->
          let x = compile st x in
          fun c ->
            let vx = x c in
            let vy = read st c y in
            burn st;
            arith op vx vy
      | _ ->
          let x = compile st x and y = compile st y in
          fun c ->
            let vx = x c in
            let vy = y c in
            burn st;
            arith op vx vy)
  | Rel (r, x, y) ->
      let t = test st r x y in
      fun c -> vbool (t c)
  | Elem _ | Field _ | Deref _ ->
      let p = place st e in
      fun c ->
        let a = p c in
        VLoc (a, st.ix)
  | Ind x -> (
      match x with
      | Elem (lo, hi, Const (VLoc (g, n)), y) when is_leaf y ->
          (* a global array's element *)
          fun c ->
            burn st;
            let vy = read st c y in
            burn st;
            let a = element st lo hi g n vy in
            let i = st.ix in
            burn st;
            a.(i)
      | _ ->
          let p = place st x in
          fun c ->
            let a = p c in
            let i = st.ix in
            burn st;
            a.(i))
  | Code f -> f

(* The truth of a comparison. *)
and test st r x y : act -> bool =
  match (is_leaf x, is_leaf y) with
  | true, true ->
      fun c ->
        let vx = read st c x in
        let vy = read st c y in
        burn st;
        holds r vx vy
  | false, true ->
      let x = compile st x in
      fun c ->
        let vx = x c in
        let vy = read st c y in
        burn st;
        holds r vx vy
  | _ ->
      let x = compile st x and y = compile st y in
      fun c ->
        let vx = x c in
        let vy = y c in
        burn st;
        holds r vx vy

(* A place: returns the array of its slot and leaves the slot's index
   in [st.ix]. *)
and place st e : act -> v array =
  match e with
  | Const (VLoc (a, i)) ->
      fun _ ->
        burn st;
        st.ix <- i;
        a
  | Laddr n ->
      fun c ->
        burn st;
        st.ix <- n;
        c.frame
  | Elem (lo, hi, Const (VLoc (g, n)), y) when is_leaf y ->
      fun c ->
        burn st;
        let vy = read st c y in
        burn st;
        element st lo hi g n vy
  | Elem (lo, hi, x, y) ->
      let x = place st x and y = compile st y in
      fun c ->
        let a = x c in
        let i = st.ix in
        let vy = y c in
        burn st;
        element st lo hi a i vy
  | Field (n, x) ->
      let x = place st x in
      fun c ->
        let a = x c in
        let i = st.ix in
        burn st;
        field st n a i
  | Deref x ->
      let x = compile st x in
      fun c ->
        let v = x c in
        burn st;
        deref st v
  | _ -> invalid_arg "Vm.place"

(* Compile effects in order ahead of the block's last instruction [k]. *)
let rec sequence st effects (k : act -> unit) : act -> unit =
  match effects with
  | [] -> k
  | e :: rest -> (
      let k = sequence st rest k in
      match e with
      | Push x ->
          let x = compile st x in
          fun c ->
            push st (x c);
            k c
      | Store (Const (VLoc (g, n)), y) ->
          let y = compile st y in
          fun c ->
            burn st;
            let v = y c in
            burn st;
            g.(n) <- v;
            k c
      | Store (Elem (lo, hi, Const (VLoc (g, n)), x), y) when is_leaf x ->
          let y = compile st y in
          fun c ->
            burn st;
            let vx = read st c x in
            burn st;
            let a = element st lo hi g n vx in
            let i = st.ix in
            let v = y c in
            burn st;
            a.(i) <- v;
            k c
      | Store (p, y) ->
          let p = place st p and y = compile st y in
          fun c ->
            let a = p c in
            let i = st.ix in
            let v = y c in
            burn st;
            a.(i) <- v;
            k c
      | Set_local (n, y) ->
          let y = compile st y in
          fun c ->
            let v = y c in
            burn st;
            c.frame.(n) <- v;
            k c
      | Set_global (g, n, y) ->
          let y = compile st y in
          fun c ->
            let v = y c in
            burn st;
            g.(n) <- v;
            k c
      | Inc (sign, Const (VLoc (g, n)), d) when is_leaf d ->
          fun c ->
            burn st;
            let vd = read st c d in
            burn st;
            inc_slot sign g n vd;
            k c
      | Inc (sign, p, d) ->
          let p = place st p and d = compile st d in
          fun c ->
            let a = p c in
            let i = st.ix in
            let vd = d c in
            burn st;
            inc_slot sign a i vd;
            k c
      | Do f ->
          fun c ->
            f c;
            k c)

(* ------------------------------------------------------------------ *)
(* Translation *)

let rec resolve st key =
  match Hashtbl.find_opt st.units key with
  | Some _ as l -> l
  | None ->
      Option.map
        (fun (u : Cunit.t) ->
          let l =
            {
              key = u.Cunit.u_key;
              nslots = u.Cunit.u_nslots;
              locals = u.Cunit.u_locals;
              blocks = translate st u;
            }
          in
          Hashtbl.replace st.units u.Cunit.u_key l;
          l)
        (Cunit.find_unit st.prog key)

(* The callee [key] of a call site, or a trap with [missing]. *)
and bind st key missing = match resolve st key with Some c -> c | None -> error missing key

(* Activate [callee] on the top [nargs] stack slots, which become its
   first frame slots.  A returned value is left on top of the stack. *)
and call st callee nargs chain =
  if st.depth >= max_depth then error "call depth exceeded";
  let base = st.sp - nargs in
  let frame = new_frame st.stack base nargs callee.nslots in
  st.sp <- base;
  init_locals frame callee.locals;
  st.depth <- st.depth + 1;
  run_from st callee.blocks { frame; chain; bp = base; hbase = st.hp } 0;
  st.depth <- st.depth - 1

(* Run an activation from [pc].  An exception either resumes it at its
   innermost handler or cuts the stack back to its base, ends the
   activation and unwinds. *)
and run_from st blocks c pc =
  match (Array.unsafe_get blocks pc) c with
  | () -> ()
  | exception M2_exception key ->
      if st.hp > c.hbase then begin
        let h = st.hp - 2 in
        st.hp <- h;
        if st.sp > st.handlers.(h + 1) then st.sp <- st.handlers.(h + 1);
        push st (VExc key);
        run_from st blocks c st.handlers.(h)
      end
      else begin
        st.sp <- c.bp;
        st.depth <- st.depth - 1;
        raise (M2_exception key)
      end

(* Split the unit's code into basic blocks and translate each. *)
and translate st (u : Cunit.t) =
  let code = u.Cunit.u_code and key = u.Cunit.u_key in
  let len = Array.length code in
  let target t = if t >= 0 && t < len then t else len in
  let leader = Array.make (len + 1) false in
  leader.(0) <- true;
  Array.iteri
    (fun pc i ->
      match i with
      | Instr.Jump t | Instr.JumpIf t | Instr.JumpIfNot t ->
          leader.(target t) <- true;
          leader.(pc + 1) <- true
      | Instr.Ret | Instr.RetVal -> leader.(pc + 1) <- true
      | Instr.Try h -> leader.(target h) <- true
      | _ -> ())
    code;
  let blocks = Array.make (len + 1) (fun _ -> error "pc out of range in %s" key) in
  let pc = ref 0 in
  while !pc < len do
    let start = !pc in
    let run, next = translate_block st key (max 1 u.Cunit.u_nslots) code blocks target leader start in
    blocks.(start) <- run;
    pc := next
  done;
  blocks

(* Translate the block at [start] by running its stack symbolically.
   [pending] holds the trees of the values it has computed but not yet
   consumed, top first; at run time the shared stack holds everything
   below them.  An instruction with an effect takes its operands off
   [pending] and first flushes the rest onto the shared stack, in
   instruction order; so does the block's end.  An operand below
   [pending] is popped from the shared stack once the instruction has
   burned its step, with the underflow check.  Returns the block and
   the pc after it. *)
and translate_block st key nslots code blocks target leader start =
  let len = Array.length code in
  let pending = ref [] and effects = ref [] in
  let tree t = pending := t :: !pending in
  let code_tree f = tree (Code f) in
  let add e = effects := e :: !effects in
  let flush () =
    List.iter (fun t -> add (Push t)) (List.rev !pending);
    pending := []
  in
  let effect e =
    flush ();
    add e
  in
  (* the generic forms of an instruction with one or two operands *)
  let un f =
    match !pending with
    | x :: rest ->
        pending := rest;
        let x = compile st x in
        fun c ->
          let vx = x c in
          burn st;
          f c vx
    | [] ->
        fun c ->
          burn st;
          f c (pop st c key)
  in
  let bin check f =
    match !pending with
    | y :: x :: rest ->
        pending := rest;
        let x = compile st x and y = compile st y in
        fun c ->
          let vx = x c in
          let vy = y c in
          burn st;
          f c vx vy
    | [ y ] ->
        pending := [];
        let y = compile st y in
        fun c ->
          let vy = y c in
          burn st;
          let vx = pop_below st c key check vy in
          f c vx vy
    | [] ->
        fun c ->
          burn st;
          let vy = pop st c key in
          let vx = pop_below st c key check vy in
          f c vx vy
  in
  (* an instruction with no operand: burns its step, then runs [f] *)
  let step f =
   fun c ->
    burn st;
    f c
  in
  let frame_of f = Hashtbl.find_opt st.frames f in
  let unknown_frame f = error "reference to unknown module frame %s" f in
  (* a slot outside its frame traps when its instruction runs *)
  let in_frame n size = n >= 0 && n < size in
  let bad_local n () = error "local slot %d outside the %d-slot frame of %s" n nslots key in
  let bad_global f g n () =
    error "global slot %d outside the %d-slot frame of module %s (in %s)" n (Array.length g) f key
  in
  let goto t = Array.unsafe_get blocks t in
  let rec go pc =
    if pc = len || (pc > start && leader.(pc)) then begin
      flush ();
      ((fun c -> goto pc c), pc)
    end
    else
      let next = pc + 1 in
      let branch jump_if t =
        let t = target t in
        let on_true, on_false = if jump_if then (t, next) else (next, t) in
        let run =
          match !pending with
          | Rel (r, x, y) :: rest ->
              pending := rest;
              let holds = test st r x y in
              fun c ->
                let b = holds c in
                burn st;
                if b then goto on_true c else goto on_false c
          | _ -> un (fun c v -> if to_bool v then goto on_true c else goto on_false c)
        in
        flush ();
        (run, next)
      in
      match code.(pc) with
      | Instr.Jump t ->
          let t = target t in
          flush ();
          ( (fun c ->
              burn st;
              goto t c),
            next )
      | Instr.JumpIf t -> branch true t
      | Instr.JumpIfNot t -> branch false t
      | Instr.Ret ->
          flush ();
          ( (fun c ->
              burn st;
              st.sp <- c.bp;
              st.hp <- c.hbase),
            next )
      | Instr.RetVal ->
          let run =
            un (fun c r ->
                st.sp <- c.bp;
                push st r;
                st.hp <- c.hbase)
          in
          flush ();
          (run, next)
      | i ->
          instr i;
          go next
  and instr = function
    | Instr.Const k -> tree (Const (value_of_const k))
    | Instr.ProcConst k -> tree (Const (VProc k))
    | Instr.Dup -> (
        match !pending with
        | t :: rest ->
            (* the lower copy runs [t] once; the upper one reads it *)
            let t = compile st t and cell = ref VUninit in
            pending :=
              Code (fun _ -> !cell)
              :: Code
                   (fun c ->
                     let v = t c in
                     burn st;
                     cell := v;
                     v)
              :: rest
        | [] ->
            code_tree
              (step (fun c ->
                   if st.sp <= c.bp then error "dup on empty stack";
                   Array.unsafe_get st.stack (st.sp - 1))))
    | Instr.Pop -> effect (Do (un (fun _ _ -> ())))
    | Instr.CopyVal -> code_tree (un (fun _ x -> copy_value x))
    | Instr.StrToArr n -> code_tree (un (fun _ x -> str_to_arr n x))
    | Instr.LoadLocal n when not (in_frame n nslots) -> code_tree (step (fun _ -> bad_local n ()))
    | Instr.LoadLocal n -> tree (Local n)
    | Instr.StoreLocal n when not (in_frame n nslots) -> effect (Do (un (fun _ _ -> bad_local n ())))
    | Instr.StoreLocal n -> (
        match !pending with
        | y :: rest ->
            pending := rest;
            effect (Set_local (n, y))
        | [] -> effect (Do (un (fun c x -> c.frame.(n) <- x))))
    | Instr.LocalAddr n when not (in_frame n nslots) -> code_tree (step (fun _ -> bad_local n ()))
    | Instr.LocalAddr n -> tree (Laddr n)
    | Instr.UplevelAddr (hops, slot) ->
        code_tree
          (step (fun c ->
               match List.nth_opt c.chain (hops - 1) with
               | Some f -> VLoc (f, slot)
               | None -> error "static chain underflow in %s" key))
    | Instr.LoadGlobal (f, n) -> (
        match frame_of f with
        | Some g when in_frame n (Array.length g) -> tree (Global (g, n))
        | Some g -> code_tree (step (fun _ -> bad_global f g n ()))
        | None -> code_tree (step (fun _ -> unknown_frame f)))
    | Instr.StoreGlobal (f, n) -> (
        match (frame_of f, !pending) with
        | Some g, _ when not (in_frame n (Array.length g)) -> effect (Do (un (fun _ _ -> bad_global f g n ())))
        | Some g, y :: rest ->
            pending := rest;
            effect (Set_global (g, n, y))
        | Some g, [] -> effect (Do (un (fun _ x -> g.(n) <- x)))
        | None, _ -> effect (Do (un (fun _ _ -> unknown_frame f))))
    | Instr.GlobalAddr (f, n) -> (
        match frame_of f with
        | Some g when in_frame n (Array.length g) -> tree (Const (VLoc (g, n)))
        | Some g -> code_tree (step (fun _ -> bad_global f g n ()))
        | None -> code_tree (step (fun _ -> unknown_frame f)))
    | Instr.FieldAddr n -> (
        match !pending with
        | x :: rest when is_place x -> pending := Field (n, x) :: rest
        | _ ->
            code_tree
              (un (fun _ x ->
                   match x with
                   | VLoc (a, i) -> VLoc (field st n a i, n)
                   | _ -> not_loc key)))
    | Instr.LoadField n ->
        code_tree
          (un (fun _ x ->
               match x with VArr fields -> fields.(n) | _ -> error "record expected for field load"))
    | Instr.IndexAddr (lo, hi) -> (
        match !pending with
        | y :: x :: rest when is_place x -> pending := Elem (lo, hi, x, y) :: rest
        | _ ->
            code_tree
              (bin int_check (fun _ x y ->
                   int_check y;
                   match x with
                   | VLoc (a, i) ->
                       let elems = element st lo hi a i y in
                       VLoc (elems, st.ix)
                   | _ -> not_loc key)))
    | Instr.IndexOpenAddr -> code_tree (bin int_check (fun _ x y -> index_open_addr key x y))
    | Instr.LoadElem (lo, hi) -> code_tree (bin int_check (fun _ x y -> load_elem lo hi x y))
    | Instr.LoadElemOpen -> code_tree (bin int_check (fun _ x y -> load_elem_open x y))
    | Instr.DerefAddr -> (
        match !pending with
        | x :: rest -> pending := Deref x :: rest
        | [] ->
            code_tree
              (step (fun c ->
                   let a = deref st (pop st c key) in
                   VLoc (a, 0))))
    | Instr.LoadInd -> (
        match !pending with
        | x :: rest when is_place x -> pending := Ind x :: rest
        | _ -> code_tree (un (fun _ x -> match x with VLoc (a, i) -> a.(i) | _ -> not_loc key)))
    | Instr.StoreInd -> (
        match !pending with
        | y :: x :: rest when is_place x ->
            pending := rest;
            effect (Store (x, y))
        | _ ->
            effect
              (Do (bin no_check (fun _ x y -> match x with VLoc (a, i) -> a.(i) <- y | _ -> not_loc key))))
    | (Instr.IncInd | Instr.DecInd) as i -> (
        let sign = if i = Instr.IncInd then 1 else -1 in
        match !pending with
        | d :: x :: rest when is_place x ->
            pending := rest;
            effect (Inc (sign, x, d))
        | _ ->
            effect
              (Do
                 (bin int_check (fun _ x d ->
                      int_check d;
                      match x with VLoc (a, i) -> inc_slot sign a i d | _ -> not_loc key))))
    | Instr.InclInd lo -> effect (Do (bin int_check (fun _ x y -> incl_ind key ~incl:true lo x y)))
    | Instr.ExclInd lo -> effect (Do (bin int_check (fun _ x y -> incl_ind key ~incl:false lo x y)))
    | Instr.NewInd d ->
        effect
          (Do (un (fun _ x -> match x with VLoc (a, i) -> a.(i) <- VCell [| default_of d |] | _ -> not_loc key)))
    | Instr.DisposeInd ->
        effect (Do (un (fun _ x -> match x with VLoc (a, i) -> a.(i) <- VNil | _ -> not_loc key)))
    | (Instr.AddI | Instr.SubI | Instr.MulI | Instr.DivI | Instr.ModI) as i -> (
        let op =
          match i with Instr.AddI -> Add | Instr.SubI -> Sub | Instr.MulI -> Mul | Instr.DivI -> Div | _ -> Mod
        in
        match !pending with
        | y :: x :: rest -> pending := Arith (op, x, y) :: rest
        | _ -> code_tree (bin int_check (fun _ x y -> arith op x y)))
    | Instr.NegI -> code_tree (un (fun _ x -> VInt (-to_int x)))
    | Instr.AddR -> code_tree (bin real_check (fun _ x y -> real_op ( +. ) x y))
    | Instr.SubR -> code_tree (bin real_check (fun _ x y -> real_op ( -. ) x y))
    | Instr.MulR -> code_tree (bin real_check (fun _ x y -> real_op ( *. ) x y))
    | Instr.DivR ->
        code_tree
          (bin real_check (fun _ x y ->
               real_op
                 (fun a b ->
                   if b = 0.0 then error "real division by zero";
                   a /. b)
                 x y))
    | Instr.NegR -> code_tree (un (fun _ x -> VReal (-.to_real x)))
    | Instr.NotB -> code_tree (un (fun _ x -> vbool (not (to_bool x))))
    | (Instr.Cmp r | Instr.CmpPtr r) as i -> (
        let rel = match i with Instr.Cmp _ -> Ord r | _ -> Ptr r in
        match !pending with
        | y :: x :: rest -> pending := Rel (rel, x, y) :: rest
        | _ -> code_tree (bin no_check (fun _ x y -> vbool (holds rel x y))))
    | Instr.SetUnion -> code_tree (bin set_check (fun _ x y -> set_op ( lor ) x y))
    | Instr.SetDiff -> code_tree (bin set_check (fun _ x y -> set_op (fun a b -> a land lnot b) x y))
    | Instr.SetInter -> code_tree (bin set_check (fun _ x y -> set_op ( land ) x y))
    | Instr.SetSymDiff -> code_tree (bin set_check (fun _ x y -> set_op ( lxor ) x y))
    | Instr.SetLe -> code_tree (bin set_check (fun _ x y -> set_rel (fun a b -> a land b = a) x y))
    | Instr.SetGe -> code_tree (bin set_check (fun _ x y -> set_rel (fun a b -> a lor b = a) x y))
    | Instr.SetIn lo ->
        code_tree
          (bin set_check (fun _ x y ->
               let m = to_set y in
               let e = to_int x - lo in
               vbool (e >= 0 && e < 62 && m land (1 lsl e) <> 0)))
    | Instr.SetAdd1 lo ->
        code_tree
          (bin int_check (fun _ x y ->
               let e = to_int y - lo in
               let m = to_set x in
               if e < 0 || e >= 62 then error "set element out of range";
               VSet (m lor (1 lsl e))))
    | Instr.SetAddRange lo -> (
        match !pending with
        | h :: l :: m :: rest ->
            pending := rest;
            let m = compile st m and l = compile st l and h = compile st h in
            code_tree (fun c ->
                let vm = m c in
                let vl = l c in
                let vh = h c in
                burn st;
                set_add_range lo vm vl vh)
        | _ ->
            (* an operand is on the shared stack: run it there *)
            effect
              (Do
                 (step (fun c ->
                      let h = to_int (pop st c key) in
                      let l = to_int (pop st c key) in
                      let m = pop st c key in
                      push st (set_add_range lo m (VInt l) (VInt h))))))
    | Instr.RangeCheck (lo, hi) -> (
        let check v =
          let n = to_int v in
          if n < lo || n > hi then error "value %d out of range [%d..%d]" n lo hi
        in
        match !pending with
        | t :: rest ->
            let t = compile st t in
            pending :=
              Code
                (fun c ->
                  let v = t c in
                  burn st;
                  check v;
                  v)
              :: rest
        | [] ->
            add
              (Do
                 (step (fun c ->
                      if st.sp <= c.bp then error "range check on empty stack";
                      check (Array.unsafe_get st.stack (st.sp - 1))))))
    | Instr.CaseError -> effect (Do (step (fun _ -> error "no CASE label matched the selector")))
    | Instr.NoReturn -> effect (Do (step (fun _ -> error "function %s did not execute RETURN" key)))
    | Instr.Call (callee_key, n, link) ->
        let bound = ref unlinked in
        effect
          (Do
             (step (fun c ->
                  if st.sp - c.bp < n then underflow key;
                  let chain =
                    match link with
                    | Instr.LinkNone -> []
                    | Instr.LinkSelf -> c.frame :: c.chain
                    | Instr.LinkUp k -> drop_frames (k - 1) c.chain
                  in
                  let callee = !bound in
                  let callee =
                    if callee != unlinked then callee
                    else begin
                      let l = bind st callee_key "call to external procedure %s (not compiled in this unit)" in
                      bound := l;
                      l
                    end
                  in
                  call st callee n chain)))
    | Instr.CallPtr n ->
        let bound = ref unlinked in
        effect
          (Do
             (step (fun c ->
                  (* the callee value is computed before the arguments *)
                  if st.sp - c.bp <= n then underflow key;
                  match Array.unsafe_get st.stack (st.sp - n - 1) with
                  | VProc k ->
                      (* procedure values are module-level by construction *)
                      let callee = !bound in
                      let callee =
                        if callee != unlinked && String.equal callee.key k then callee
                        else begin
                          let l = bind st k "call through procedure value to external %s" in
                          bound := l;
                          l
                        end
                      in
                      (* drop the callee value from under the arguments *)
                      let base = st.sp - n in
                      Array.blit st.stack base st.stack (base - 1) n;
                      st.sp <- st.sp - 1;
                      call st callee n []
                  | VNil -> error "call through NIL procedure value"
                  | _ -> error "procedure value expected")))
    | Instr.Builtin (Instr.OWriteLn, _) -> effect (Do (step (fun _ -> Buffer.add_char st.out '\n')))
    | Instr.Builtin (Instr.OHalt, _) -> effect (Do (step (fun _ -> raise Halted)))
    | Instr.Builtin (op, _) -> (
        match pure_builtin op with
        | Some f -> code_tree (un (fun _ x -> f x))
        | None -> effect (Do (un (fun _ x -> effect_builtin st op x))))
    | Instr.Try h ->
        let h = target h in
        effect (Do (step (fun _ -> push_handler st h)))
    | Instr.EndTry ->
        effect (Do (step (fun c -> if st.hp <= c.hbase then error "EndTry without Try" else st.hp <- st.hp - 2)))
    | Instr.RaiseI | Instr.ReRaise -> effect (Do (un (fun _ x -> raise_exc x)))
    | Instr.Jump _ | Instr.JumpIf _ | Instr.JumpIfNot _ | Instr.Ret | Instr.RetVal ->
        invalid_arg "Vm.translate_block"
  in
  let last, next = go start in
  (sequence st (List.rev !effects) last, next)

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
      stack = Array.make 1024 VUninit;
      sp = 0;
      handlers = Array.make 64 0;
      hp = 0;
      ix = 0;
      depth = 0;
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
    steps = fuel - st.fuel;
    store_digest = store_digest_of st.frames;
  }

let status_to_string = function
  | Finished -> "finished"
  | Halt_called -> "halted"
  | Trap m -> "trap: " ^ m
  | Uncaught_exception k -> "uncaught exception " ^ k
