(* The statement analyzer / code generator.

   One such task runs per scope that has a statement part (every
   procedure stream, plus the module body).  It walks the statement parse
   tree built by the parser, performs the deferred semantic analysis of
   statements — full type checking of expressions, designators, calls and
   control flow — and emits stack-machine code, in a single pass (paper
   §3: "we incur no loss in processing efficiency by combining statement
   semantic analysis with code generation in a single task").

   By the time this task runs, its own scope is complete (the parser
   marked it before building the statement tree); lookups that chain into
   other streams' scopes may still block under the DKY protocol.  All
   name references here use full-scope visibility (statements follow the
   declarations textually in Modula-2 blocks, and Modula-2+ relaxes
   declare-before-use across nested scopes for statement contexts).

   WITH statements push record scopes onto a task-local stack searched
   before the symbol table; hits are recorded under Table 2's "WITH"
   scope class. *)

open Mcc_ast
open Mcc_sched
module A = Ast
module T = Mcc_sem.Types
module S = Mcc_sem.Symbol
module V = Mcc_sem.Value
module Ctx = Mcc_sem.Ctx
module Symtab = Mcc_sem.Symtab
module Ls = Mcc_sem.Lookup_stats
module Const_eval = Mcc_sem.Const_eval
module P = Mcc_parse.Parser
open Mcc_util

type env = {
  ctx : Ctx.t;
  code : Instr.t Vec.t;
  key : string;
  result : T.ty option;
  nparams : int;
  mutable next_temp : int;
  mutable max_slot : int; (* high-water mark over locals + temps *)
  mutable withs : (T.rec_info * int) list; (* innermost WITH first: record info, temp holding loc *)
  mutable loops : int list ref list; (* EXIT jump sites per enclosing LOOP *)
}

let emit env i =
  Eff.work Costs.emit_instr;
  Vec.push env.code i

let here env = Vec.length env.code
let patch env pc i = Vec.set env.code pc i

let alloc_temp env =
  let t = env.next_temp in
  env.next_temp <- t + 1;
  if env.next_temp > env.max_slot then env.max_slot <- env.next_temp;
  t

let free_temp env = env.next_temp <- env.next_temp - 1

let err env loc fmt = Ctx.error env.ctx loc fmt

(* ------------------------------------------------------------------ *)
(* Name resolution *)

type resolved =
  | RWith of int * T.field (* temp slot holding the record loc, field *)
  | RSym of S.t
  | RNone

let resolve_name env (id : A.ident) : resolved =
  (* WITH scopes are searched before the symbol table chain *)
  let rec in_withs = function
    | [] -> None
    | (rinfo, temp) :: rest -> (
        match List.assoc_opt id.A.name rinfo.T.fields with
        | Some f -> Some (temp, f)
        | None -> in_withs rest)
  in
  match in_withs env.withs with
  | Some (temp, f) ->
      Ls.record env.ctx.Ctx.stats ~kind:Ls.Simple ~found:Ls.FirstTry ~scope:Ls.CWith
        ~compl:Ls.Complete;
      RWith (temp, f)
  | None -> (
      match
        Symtab.lookup ~strategy:env.ctx.Ctx.strategy ~stats:env.ctx.Ctx.stats ~use_off:max_int
          ~scope:env.ctx.Ctx.scope id.A.name
      with
      | Some sym -> RSym sym
      | None ->
          err env id.A.iloc "undeclared identifier %s" id.A.name;
          RNone)

(* [M.x] where M is an imported module binding. *)
let resolve_qualified env (m : A.ident) (f : A.ident) mname : S.t option =
  ignore m;
  match Mcc_sem.Modreg.find env.ctx.Ctx.registry mname with
  | None ->
      err env f.A.iloc "module %s has no interface" mname;
      None
  | Some mscope -> (
      match
        Symtab.lookup_qualified ~strategy:env.ctx.Ctx.strategy ~stats:env.ctx.Ctx.stats
          ~scope:mscope f.A.name
      with
      | Some sym -> Some sym
      | None ->
          err env f.A.iloc "%s is not exported by module %s" f.A.name mname;
          None)

(* If [e] is [EName m] or [EField ...] whose head resolves to a module
   binding, return the qualified symbol for [e.f]. *)
let qualified_field env (base : A.expr) (f : A.ident) : S.t option option =
  match base.A.e with
  | A.EName { A.prefix = None; id = m } -> (
      (* peek: is m a module binding?  WITH fields shadow modules. *)
      let rec in_withs = function
        | [] -> false
        | (rinfo, _) :: rest -> List.mem_assoc m.A.name rinfo.T.fields || in_withs rest
      in
      if in_withs env.withs then None
      else
        match
          Symtab.lookup ~strategy:env.ctx.Ctx.strategy ~stats:env.ctx.Ctx.stats ~use_off:max_int
            ~scope:env.ctx.Ctx.scope m.A.name
        with
        | Some { S.skind = S.SModule mname; _ } -> Some (resolve_qualified env m f mname)
        | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Designators: emit code computing a location; return its type. *)

let dummy_addr env =
  (* keep the stack shape sane on error paths *)
  emit env (Instr.Const V.VNil);
  T.TErr

(* Uplevel addressing: frame-relative storage found in an *enclosing
   procedure's* scope is reached through the static chain.  [frame_hops]
   locates the procedure frame a symbol physically lives in, counting
   procedure-scope boundaries crossed on the way up (0 = the current
   frame).  The walk depends only on scope structure, so sequential and
   concurrent compilations agree. *)
let frame_hops env (sym : S.t) : int option =
  let rec go (sc : Symtab.t) hops =
    match Symtab.find_opt sc sym.S.sname with
    | Some s when s == sym -> Some hops
    | _ -> (
        match sc.Symtab.parent with
        | Some p ->
            let hops' = match p.Symtab.kind with Symtab.KProc _ -> hops + 1 | _ -> hops in
            go p hops'
        | None -> None)
  in
  go env.ctx.Ctx.scope 0

(* Where a called procedure's static chain comes from (see
   [Instr.linkspec]): declared in the current scope -> the caller's frame
   heads the chain; k procedure scopes up -> a suffix of the caller's
   chain; module level or imported -> no chain. *)
let call_link env (sym : S.t) : Instr.linkspec =
  let rec go (sc : Symtab.t) hops =
    match Symtab.find_opt sc sym.S.sname with
    | Some s when s == sym -> (
        match sc.Symtab.kind with
        | Symtab.KProc _ -> if hops = 0 then Instr.LinkSelf else Instr.LinkUp hops
        | _ -> Instr.LinkNone)
    | _ -> (
        match sc.Symtab.parent with
        | Some p ->
            let hops' = match p.Symtab.kind with Symtab.KProc _ -> hops + 1 | _ -> hops in
            go p hops'
        | None -> Instr.LinkNone)
  in
  go env.ctx.Ctx.scope 0

let frame_addr env loc (sym : S.t) slot =
  match frame_hops env sym with
  | Some 0 -> emit env (Instr.LocalAddr slot)
  | Some hops -> emit env (Instr.UplevelAddr (hops, slot))
  | None ->
      err env loc "%s is not reachable from this scope" sym.S.sname;
      emit env (Instr.Const V.VNil)

let sym_addr env loc (sym : S.t) : T.ty =
  match sym.S.skind with
  | S.SVar (home, ty) ->
      (match home with
      | S.HGlobal (fk, slot) -> emit env (Instr.GlobalAddr (fk, slot))
      | S.HLocal slot | S.HParam (slot, false) -> frame_addr env loc sym slot
      | S.HParam (slot, true) ->
          (* the slot holds a location *)
          frame_addr env loc sym slot;
          emit env Instr.LoadInd);
      ty
  | _ ->
      err env loc "%s is a %s and cannot be assigned or passed by reference" sym.S.sname
        (S.kind_name sym);
      dummy_addr env

let rec gen_addr env (e : A.expr) : T.ty =
  Eff.work Costs.expr_node;
  match e.A.e with
  | A.EName { A.prefix = None; id } -> (
      match resolve_name env id with
      | RWith (temp, f) ->
          emit env (Instr.LoadLocal temp);
          emit env (Instr.FieldAddr f.T.fslot);
          f.T.fty
      | RSym sym -> sym_addr env id.A.iloc sym
      | RNone -> dummy_addr env)
  | A.EField (base, f) -> (
      match qualified_field env base f with
      | Some (Some sym) -> sym_addr env f.A.iloc sym
      | Some None -> dummy_addr env
      | None -> (
          let bty = gen_addr env base in
          match T.base bty with
          | T.TRec r -> (
              match List.assoc_opt f.A.name r.T.fields with
              | Some fld ->
                  emit env (Instr.FieldAddr fld.T.fslot);
                  fld.T.fty
              | None ->
                  err env f.A.iloc "record %s has no field %s" (T.name bty) f.A.name;
                  emit env Instr.Pop;
                  dummy_addr env)
          | T.TErr -> bty
          | t ->
              err env f.A.iloc "%s is not a record type" (T.name t);
              emit env Instr.Pop;
              dummy_addr env))
  | A.EIndex (base, idxs) ->
      let bty = gen_addr env base in
      List.fold_left
        (fun acc idx ->
          match T.base acc with
          | T.TArr a ->
              let ity = gen_value env idx in
              if not (T.compatible ity a.T.index) then
                err env idx.A.eloc "index type %s is incompatible with %s" (T.name ity)
                  (T.name a.T.index);
              emit env (Instr.IndexAddr (a.T.lo, a.T.hi));
              a.T.elem
          | T.TOpenArr elem ->
              let ity = gen_value env idx in
              if not (T.is_numeric ity) then
                err env idx.A.eloc "open array index must be numeric, not %s" (T.name ity);
              emit env Instr.IndexOpenAddr;
              elem
          | T.TErr ->
              ignore (gen_value env idx);
              emit env Instr.Pop;
              T.TErr
          | t ->
              err env idx.A.eloc "%s is not an array type" (T.name t);
              ignore (gen_value env idx);
              emit env Instr.Pop;
              T.TErr)
        bty idxs
  | A.EDeref base -> (
      let bty = gen_value env base in
      match T.base bty with
      | T.TPtr p ->
          emit env Instr.DerefAddr;
          p.T.target
      | T.TErr -> bty
      | t ->
          err env e.A.eloc "%s is not a pointer type and cannot be dereferenced" (T.name t);
          emit env Instr.Pop;
          dummy_addr env)
  | _ ->
      err env e.A.eloc "a designator (assignable variable) is required here";
      dummy_addr env

(* ------------------------------------------------------------------ *)
(* Expressions: emit code computing a value; return its type. *)

and gen_value env (e : A.expr) : T.ty =
  Eff.work Costs.expr_node;
  match e.A.e with
  | A.EInt n -> emit env (Instr.Const (V.VInt n)); T.TInt
  | A.EReal f -> emit env (Instr.Const (V.VReal f)); T.TReal
  | A.EChar c -> emit env (Instr.Const (V.VChar c)); T.TChar
  | A.EStr s when String.length s = 1 ->
      emit env (Instr.Const (V.VStr s));
      T.TStrLit 1
  | A.EStr s ->
      emit env (Instr.Const (V.VStr s));
      T.TStrLit (String.length s)
  | A.EName { A.prefix = None; id } -> (
      match resolve_name env id with
      | RWith (temp, f) ->
          emit env (Instr.LoadLocal temp);
          emit env (Instr.FieldAddr f.T.fslot);
          emit env Instr.LoadInd;
          f.T.fty
      | RSym sym -> sym_value env id.A.iloc sym
      | RNone ->
          emit env (Instr.Const V.VNil);
          T.TErr)
  | A.EName _ -> assert false (* the parser builds field chains, not prefixes *)
  | A.EField (base, f) -> (
      match qualified_field env base f with
      | Some (Some sym) -> sym_value env f.A.iloc sym
      | Some None ->
          emit env (Instr.Const V.VNil);
          T.TErr
      | None ->
          let ty = gen_addr env e in
          emit env Instr.LoadInd;
          ty)
  | A.EIndex _ | A.EDeref _ ->
      let ty = gen_addr env e in
      emit env Instr.LoadInd;
      ty
  | A.ECall (f, args) -> gen_call env e.A.eloc f args ~statement:false
  | A.EBin (op, a, b) -> gen_binop env e.A.eloc op a b
  | A.EUn (op, a) -> gen_unop env e.A.eloc op a
  | A.ESet (tyq, elems) -> gen_set env e.A.eloc tyq elems

and sym_value env loc (sym : S.t) : T.ty =
  match sym.S.skind with
  | S.SConst (v, ty) ->
      emit env (Instr.Const v);
      ty
  | S.SEnumLit (ty, ord) ->
      emit env (Instr.Const (V.VInt ord));
      ty
  | S.SVar (home, ty) ->
      (match home with
      | S.HGlobal (fk, slot) -> emit env (Instr.LoadGlobal (fk, slot))
      | S.HLocal slot | S.HParam (slot, false) -> (
          match frame_hops env sym with
          | Some 0 -> emit env (Instr.LoadLocal slot)
          | _ ->
              frame_addr env loc sym slot;
              emit env Instr.LoadInd)
      | S.HParam (slot, true) ->
          frame_addr env loc sym slot;
          emit env Instr.LoadInd;
          emit env Instr.LoadInd);
      ty
  | S.SProc info ->
      (match call_link env sym with
      | Instr.LinkNone ->
          emit env (Instr.ProcConst info.S.key);
          T.TProc info.S.sig_
      | _ ->
          (* PIM: procedures assigned to variables or passed as values
             must not be local to other procedures (they would need a
             closure over the static chain) *)
          err env loc "%s is local to a procedure and cannot be used as a procedure value"
            sym.S.sname;
          emit env (Instr.Const V.VNil);
          T.TProc info.S.sig_)
  | S.SBuiltin _ ->
      err env loc "builtin %s cannot be used as a value" sym.S.sname;
      emit env (Instr.Const V.VNil);
      T.TErr
  | S.SModule _ ->
      err env loc "module %s cannot be used as a value" sym.S.sname;
      emit env (Instr.Const V.VNil);
      T.TErr
  | S.SType _ ->
      err env loc "type %s cannot be used as a value" sym.S.sname;
      emit env (Instr.Const V.VNil);
      T.TErr
  | S.SPlaceholder _ -> assert false

and gen_binop env loc op a b : T.ty =
  match op with
  | A.And ->
      (* short circuit: a AND b *)
      let ta = gen_value env a in
      if not (T.equal ta T.TBool) then err env a.A.eloc "AND requires BOOLEAN operands";
      emit env Instr.Dup;
      let j = here env in
      emit env (Instr.JumpIfNot 0);
      emit env Instr.Pop;
      let tb = gen_value env b in
      if not (T.equal tb T.TBool) then err env b.A.eloc "AND requires BOOLEAN operands";
      patch env j (Instr.JumpIfNot (here env));
      T.TBool
  | A.Or ->
      let ta = gen_value env a in
      if not (T.equal ta T.TBool) then err env a.A.eloc "OR requires BOOLEAN operands";
      emit env Instr.Dup;
      let j = here env in
      emit env (Instr.JumpIf 0);
      emit env Instr.Pop;
      let tb = gen_value env b in
      if not (T.equal tb T.TBool) then err env b.A.eloc "OR requires BOOLEAN operands";
      patch env j (Instr.JumpIf (here env));
      T.TBool
  | A.In -> (
      let ta = gen_value env a in
      let tb = gen_value env b in
      match T.base tb with
      | T.TSet s ->
          if not (T.compatible ta s.T.sbase) then
            err env loc "element type %s does not match set base %s" (T.name ta) (T.name s.T.sbase);
          emit env (Instr.SetIn s.T.slo);
          T.TBool
      | T.TBitset ->
          if not (T.is_numeric ta) then err env loc "BITSET elements are CARDINAL";
          emit env (Instr.SetIn 0);
          T.TBool
      | T.TErr -> T.TErr
      | t ->
          err env loc "IN requires a set, not %s" (T.name t);
          emit env Instr.Pop;
          T.TBool)
  | A.Eq | A.Neq | A.Lt | A.Le | A.Gt | A.Ge -> (
      let ta = gen_value env a in
      let tb = gen_value env b in
      if not (T.compatible ta tb) then
        err env loc "cannot compare %s with %s" (T.name ta) (T.name tb);
      let rel =
        match op with
        | A.Eq -> Instr.REq
        | A.Neq -> Instr.RNe
        | A.Lt -> Instr.RLt
        | A.Le -> Instr.RLe
        | A.Gt -> Instr.RGt
        | _ -> Instr.RGe
      in
      (match (T.base ta, T.base tb) with
      | (T.TPtr _ | T.TNil | T.TProc _), _ | _, (T.TPtr _ | T.TNil | T.TProc _) ->
          if rel <> Instr.REq && rel <> Instr.RNe then
            err env loc "pointers and procedure values only compare with = and #";
          emit env (Instr.CmpPtr rel)
      | (T.TSet _ | T.TBitset), _ -> (
          (* set relations: = # for equality, <= >= for inclusion *)
          match rel with
          | Instr.REq | Instr.RNe -> emit env (Instr.Cmp rel)
          | Instr.RLe -> emit env Instr.SetLe
          | Instr.RGe -> emit env Instr.SetGe
          | _ -> err env loc "sets compare with =, #, <= and >= only")
      | _ -> emit env (Instr.Cmp rel));
      T.TBool)
  | A.Add | A.Sub | A.Mul | A.Divide | A.Div | A.Mod -> (
      let ta = gen_value env a in
      let tb = gen_value env b in
      let both p = p ta && p tb in
      let is_real t = T.base t = T.TReal in
      let is_set t = match T.base t with T.TSet _ | T.TBitset -> true | _ -> false in
      if T.is_error ta || T.is_error tb then T.TErr
      else if both T.is_numeric then begin
        (match op with
        | A.Add -> emit env Instr.AddI
        | A.Sub -> emit env Instr.SubI
        | A.Mul -> emit env Instr.MulI
        | A.Div -> emit env Instr.DivI
        | A.Mod -> emit env Instr.ModI
        | A.Divide ->
            err env loc "/ is not defined on INTEGER; use DIV"
        | _ -> assert false);
        T.TInt
      end
      else if both is_real then begin
        (match op with
        | A.Add -> emit env Instr.AddR
        | A.Sub -> emit env Instr.SubR
        | A.Mul -> emit env Instr.MulR
        | A.Divide -> emit env Instr.DivR
        | _ -> err env loc "DIV and MOD are not defined on REAL");
        T.TReal
      end
      else if both is_set then begin
        if not (T.compatible ta tb) then err env loc "set operands have different types";
        (match op with
        | A.Add -> emit env Instr.SetUnion
        | A.Sub -> emit env Instr.SetDiff
        | A.Mul -> emit env Instr.SetInter
        | A.Divide -> emit env Instr.SetSymDiff
        | _ -> err env loc "DIV and MOD are not defined on sets");
        ta
      end
      else begin
        err env loc "operands %s and %s do not support this operator" (T.name ta) (T.name tb);
        emit env Instr.Pop;
        T.TErr
      end)

and gen_unop env loc op a : T.ty =
  let ta = gen_value env a in
  match op with
  | A.Neg ->
      if T.base ta = T.TReal then emit env Instr.NegR
      else if T.is_numeric ta then emit env Instr.NegI
      else err env loc "unary minus requires a numeric operand, not %s" (T.name ta);
      ta
  | A.Pos ->
      if not (T.is_numeric ta || T.base ta = T.TReal) then
        err env loc "unary plus requires a numeric operand, not %s" (T.name ta);
      ta
  | A.Not ->
      if not (T.equal ta T.TBool) then err env loc "NOT requires a BOOLEAN operand";
      emit env Instr.NotB;
      T.TBool

and gen_set env loc tyq elems : T.ty =
  let sty =
    match tyq with
    | None -> T.TBitset
    | Some q -> (
        match Ctx.lookup_type env.ctx q ~use_off:max_int with
        | T.TSet _ as t -> t
        | T.TBitset -> T.TBitset
        | T.TErr -> T.TErr
        | t ->
            err env loc "%s is not a set type" (T.name t);
            T.TErr)
  in
  let lo, base_ty =
    match sty with
    | T.TSet s -> (s.T.slo, s.T.sbase)
    | _ -> (0, T.TCard)
  in
  emit env (Instr.Const (V.VSet 0));
  List.iter
    (fun elem ->
      match elem with
      | A.SetOne e ->
          let t = gen_value env e in
          if not (T.compatible t base_ty) then
            err env e.A.eloc "set element type %s does not match base %s" (T.name t)
              (T.name base_ty);
          emit env (Instr.SetAdd1 lo)
      | A.SetRange (a, b) ->
          let t1 = gen_value env a in
          let t2 = gen_value env b in
          if not (T.compatible t1 base_ty && T.compatible t2 base_ty) then
            err env a.A.eloc "set range type does not match base %s" (T.name base_ty);
          emit env (Instr.SetAddRange lo))
    elems;
  sty

(* ------------------------------------------------------------------ *)
(* Calls *)

and gen_args env loc (sig_ : T.signature) (args : A.expr list) =
  let formals = sig_.T.params in
  if List.length formals <> List.length args then
    err env loc "wrong number of arguments: expected %d, found %d" (List.length formals)
      (List.length args)
  else
    List.iter2
      (fun (formal : T.param) actual ->
        if formal.T.mode_var then begin
          let aty = gen_addr env actual in
          if not (T.param_compat ~formal ~actual:aty) then
            err env actual.A.eloc "VAR argument of type %s does not match formal of type %s"
              (T.name aty) (T.name formal.T.pty)
        end
        else begin
          let aty = gen_value env actual in
          if not (T.param_compat ~formal ~actual:aty) then
            err env actual.A.eloc "argument of type %s does not match formal of type %s"
              (T.name aty) (T.name formal.T.pty);
          (* value semantics: structured actuals are copied *)
          (match T.base aty with
          | T.TArr _ | T.TRec _ -> emit env Instr.CopyVal
          | T.TStrLit n -> (
              match T.base formal.T.pty with
              | T.TArr a -> emit env (Instr.StrToArr (a.T.hi - a.T.lo + 1))
              | _ -> ignore n)
          | _ -> ())
        end)
      formals args

and gen_call env loc (f : A.expr) (args : A.expr list) ~statement : T.ty =
  let finish_proc ?(link = Instr.LinkNone) (info : S.proc_info) =
    gen_args env loc info.S.sig_ args;
    emit env (Instr.Call (info.S.key, List.length info.S.sig_.T.params, link));
    match info.S.sig_.T.result with
    | Some rty ->
        if statement then begin
          err env loc "a function result must be used";
          emit env Instr.Pop;
          None |> ignore
        end;
        rty
    | None ->
        if not statement then begin
          err env loc "procedure call has no result and cannot appear in an expression";
          emit env (Instr.Const V.VNil)
        end;
        T.TErr
  in
  let call_value fty =
    match T.base fty with
    | T.TProc sig_ -> (
        (* the callee value is already on the stack, beneath the args *)
        gen_args env loc sig_ args;
        emit env (Instr.CallPtr (List.length sig_.T.params));
        match sig_.T.result with
        | Some rty ->
            if statement then begin
              err env loc "a function result must be used";
              emit env Instr.Pop
            end;
            rty
        | None ->
            if not statement then begin
              err env loc "procedure call has no result and cannot appear in an expression";
              emit env (Instr.Const V.VNil)
            end;
            T.TErr)
    | T.TErr -> T.TErr
    | t ->
        err env loc "%s is not callable" (T.name t);
        emit env Instr.Pop;
        if not statement then emit env (Instr.Const V.VNil);
        T.TErr
  in
  match f.A.e with
  | A.EName { A.prefix = None; id } -> (
      match resolve_name env id with
      | RSym { S.skind = S.SBuiltin b; _ } -> gen_builtin env loc b args ~statement
      | RSym ({ S.skind = S.SProc info; _ } as sym) -> finish_proc ~link:(call_link env sym) info
      | RSym sym ->
          (* a variable of procedure type *)
          let fty = sym_value env id.A.iloc sym in
          call_value fty
      | RWith (temp, fld) ->
          emit env (Instr.LoadLocal temp);
          emit env (Instr.FieldAddr fld.T.fslot);
          emit env Instr.LoadInd;
          call_value fld.T.fty
      | RNone ->
          if not statement then emit env (Instr.Const V.VNil);
          T.TErr)
  | A.EField (base, fld) -> (
      match qualified_field env base fld with
      | Some (Some { S.skind = S.SProc info; _ }) -> finish_proc info
      | Some (Some sym) ->
          let fty = sym_value env fld.A.iloc sym in
          call_value fty
      | Some None ->
          if not statement then emit env (Instr.Const V.VNil);
          T.TErr
      | None ->
          let fty = gen_value env f in
          call_value fty)
  | _ ->
      let fty = gen_value env f in
      call_value fty

(* ------------------------------------------------------------------ *)
(* Builtins *)

and expect_args env loc n args =
  if List.length args <> n then begin
    err env loc "builtin expects %d argument%s, found %d" n (if n = 1 then "" else "s")
      (List.length args);
    false
  end
  else true

and gen_builtin env loc b (args : A.expr list) ~statement : T.ty =
  let module B = S in
  let no_result name =
    if not statement then begin
      err env loc "%s does not return a value" name;
      emit env (Instr.Const V.VNil)
    end;
    T.TErr
  in
  let one_value () =
    match args with
    | [ a ] -> Some (gen_value env a)
    | _ ->
        ignore (expect_args env loc 1 args);
        None
  in
  match b with
  | B.BAbs -> (
      match one_value () with
      | Some t when T.base t = T.TReal ->
          emit env (Instr.Builtin (Instr.OAbsR, 1));
          t
      | Some t when T.is_numeric t ->
          emit env (Instr.Builtin (Instr.OAbsI, 1));
          t
      | Some t ->
          err env loc "ABS requires a numeric argument, not %s" (T.name t);
          T.TErr
      | None -> T.TErr)
  | B.BCap -> (
      match one_value () with
      | Some t ->
          if not (T.compatible t T.TChar) then err env loc "CAP requires a CHAR argument";
          emit env (Instr.Builtin (Instr.OCap, 1));
          T.TChar
      | None -> T.TErr)
  | B.BChr -> (
      match one_value () with
      | Some t ->
          if not (T.is_numeric t) then err env loc "CHR requires a CARDINAL argument";
          emit env (Instr.RangeCheck (0, 255));
          emit env (Instr.Builtin (Instr.OIntToChar, 1));
          T.TChar
      | None -> T.TErr)
  | B.BOrd -> (
      match one_value () with
      | Some t ->
          if not (T.is_ordinal t) then err env loc "ORD requires an ordinal argument";
          emit env (Instr.Builtin (Instr.OOrdOf, 1));
          T.TCard
      | None -> T.TErr)
  | B.BFloat -> (
      match one_value () with
      | Some t ->
          if not (T.is_numeric t) then err env loc "FLOAT requires an integer argument";
          emit env (Instr.Builtin (Instr.OIntToReal, 1));
          T.TReal
      | None -> T.TErr)
  | B.BTrunc -> (
      match one_value () with
      | Some t ->
          if T.base t <> T.TReal then err env loc "TRUNC requires a REAL argument";
          emit env (Instr.Builtin (Instr.ORealToInt, 1));
          T.TInt
      | None -> T.TErr)
  | B.BOdd -> (
      match one_value () with
      | Some t ->
          if not (T.is_numeric t) then err env loc "ODD requires an integer argument";
          emit env (Instr.Builtin (Instr.OOddI, 1));
          T.TBool
      | None -> T.TErr)
  | B.BSqrt | B.BSin | B.BCos | B.BLn | B.BExp -> (
      let op =
        match b with
        | B.BSqrt -> Instr.OSqrt
        | B.BSin -> Instr.OSin
        | B.BCos -> Instr.OCos
        | B.BLn -> Instr.OLn
        | _ -> Instr.OExp
      in
      match one_value () with
      | Some t ->
          if T.base t <> T.TReal then err env loc "this function requires a REAL argument";
          emit env (Instr.Builtin (op, 1));
          T.TReal
      | None -> T.TErr)
  | B.BHigh -> (
      match args with
      | [ a ] -> (
          let t = gen_value env a in
          match T.base t with
          | T.TOpenArr _ | T.TStrLit _ ->
              emit env (Instr.Builtin (Instr.OHighOf, 1));
              T.TCard
          | T.TArr ai ->
              (* static bound *)
              emit env Instr.Pop;
              emit env (Instr.Const (V.VInt (ai.T.hi - ai.T.lo)));
              T.TCard
          | _ ->
              err env loc "HIGH requires an array argument";
              T.TErr)
      | _ ->
          ignore (expect_args env loc 1 args);
          T.TErr)
  | B.BVal -> (
      (* VAL(T, e): runtime ordinal conversion with a range check *)
      match args with
      | [ { A.e = A.EName tq; _ }; a ] -> (
          let ty = Ctx.lookup_type env.ctx tq ~use_off:max_int in
          let at = gen_value env a in
          if not (T.is_ordinal at) then err env loc "VAL requires an ordinal value";
          match ty with
          | T.TErr -> T.TErr
          | t when T.is_ordinal t ->
              let lo, hi = T.bounds t in
              emit env (Instr.Builtin (Instr.OOrdOf, 1));
              emit env (Instr.RangeCheck (lo, hi));
              if T.base t = T.TChar then emit env (Instr.Builtin (Instr.OIntToChar, 1));
              t
          | t ->
              err env loc "VAL requires an ordinal type, not %s" (T.name t);
              T.TErr)
      | _ ->
          err env loc "VAL requires a type name and a value";
          emit env (Instr.Const V.VNil);
          T.TErr)
  | B.BMax | B.BMin | B.BSize -> (
      (* type-name arguments: evaluated at compile time *)
      env.ctx.Ctx.full_visibility <- true;
      let r = Const_eval.eval env.ctx { A.e = A.ECall ({ A.e = A.EName { A.prefix = None; id = { A.name = builtin_const_name b; iloc = loc } }; eloc = loc }, args); eloc = loc } in
      env.ctx.Ctx.full_visibility <- true;
      match r with
      | Some (v, t) ->
          emit env (Instr.Const v);
          t
      | None ->
          emit env (Instr.Const V.VNil);
          T.TErr)
  | B.BInc | B.BDec -> (
      match args with
      | [ v ] | [ v; _ ] ->
          let vt = gen_addr env v in
          if not (T.is_ordinal vt) then err env loc "INC/DEC requires an ordinal variable";
          (match args with
          | [ _; delta ] ->
              let dt = gen_value env delta in
              if not (T.is_numeric dt) then err env loc "INC/DEC amount must be an integer"
          | _ -> emit env (Instr.Const (V.VInt 1)));
          emit env (if b = B.BInc then Instr.IncInd else Instr.DecInd);
          no_result "INC/DEC"
      | _ ->
          ignore (expect_args env loc 1 args);
          no_result "INC/DEC")
  | B.BIncl | B.BExcl -> (
      match args with
      | [ s; e ] -> (
          let st = gen_addr env s in
          match T.base st with
          | T.TSet si ->
              let et = gen_value env e in
              if not (T.compatible et si.T.sbase) then
                err env loc "set element type does not match set base";
              emit env (if b = B.BIncl then Instr.InclInd si.T.slo else Instr.ExclInd si.T.slo);
              no_result "INCL/EXCL"
          | T.TBitset ->
              let et = gen_value env e in
              if not (T.is_numeric et) then err env loc "BITSET elements are CARDINAL";
              emit env (if b = B.BIncl then Instr.InclInd 0 else Instr.ExclInd 0);
              no_result "INCL/EXCL"
          | t ->
              err env loc "INCL/EXCL requires a set variable, not %s" (T.name t);
              ignore (gen_value env e);
              emit env Instr.Pop;
              emit env Instr.Pop;
              no_result "INCL/EXCL")
      | _ ->
          ignore (expect_args env loc 2 args);
          no_result "INCL/EXCL")
  | B.BHalt ->
      if expect_args env loc 0 args then emit env (Instr.Builtin (Instr.OHalt, 0));
      no_result "HALT"
  | B.BNew -> (
      match args with
      | [ p ] -> (
          let pt = gen_addr env p in
          match T.base pt with
          | T.TPtr pi ->
              let desc = Tydesc.of_ty ~exc_key:(env.key ^ "!heap") pi.T.target in
              emit env (Instr.NewInd desc);
              no_result "NEW"
          | t ->
              err env loc "NEW requires a pointer variable, not %s" (T.name t);
              emit env Instr.Pop;
              no_result "NEW")
      | _ ->
          ignore (expect_args env loc 1 args);
          no_result "NEW")
  | B.BDispose -> (
      match args with
      | [ p ] ->
          let pt = gen_addr env p in
          (match T.base pt with
          | T.TPtr _ -> ()
          | t -> err env loc "DISPOSE requires a pointer variable, not %s" (T.name t));
          emit env Instr.DisposeInd;
          no_result "DISPOSE"
      | _ ->
          ignore (expect_args env loc 1 args);
          no_result "DISPOSE")
  | B.BWriteInt -> (
      match one_value () with
      | Some t ->
          if not (T.is_numeric t) then err env loc "WriteInt requires an integer argument";
          emit env (Instr.Builtin (Instr.OWriteInt, 1));
          no_result "WriteInt"
      | None -> no_result "WriteInt")
  | B.BWriteLn ->
      if expect_args env loc 0 args then emit env (Instr.Builtin (Instr.OWriteLn, 0));
      no_result "WriteLn"
  | B.BWriteString -> (
      match one_value () with
      | Some t ->
          (match T.base t with
          | T.TStrLit _ -> ()
          | T.TArr a when T.equal a.T.elem T.TChar -> ()
          | T.TOpenArr e when T.equal e T.TChar -> ()
          | t -> err env loc "WriteString requires a string argument, not %s" (T.name t));
          emit env (Instr.Builtin (Instr.OWriteString, 1));
          no_result "WriteString"
      | None -> no_result "WriteString")
  | B.BWriteChar -> (
      match one_value () with
      | Some t ->
          if not (T.compatible t T.TChar) then err env loc "WriteChar requires a CHAR argument";
          emit env (Instr.Builtin (Instr.OWriteChar, 1));
          no_result "WriteChar"
      | None -> no_result "WriteChar")
  | B.BWriteReal -> (
      match one_value () with
      | Some t ->
          if T.base t <> T.TReal then err env loc "WriteReal requires a REAL argument";
          emit env (Instr.Builtin (Instr.OWriteReal, 1));
          no_result "WriteReal"
      | None -> no_result "WriteReal")
  | B.BReadInt -> (
      match args with
      | [ v ] ->
          let vt = gen_addr env v in
          if not (T.is_numeric vt) then err env loc "ReadInt requires an integer variable";
          emit env (Instr.Builtin (Instr.OReadInt, 1));
          no_result "ReadInt"
      | _ ->
          ignore (expect_args env loc 1 args);
          no_result "ReadInt")

and builtin_const_name = function
  | S.BMax -> "MAX"
  | S.BMin -> "MIN"
  | S.BVal -> "VAL"
  | S.BSize -> "SIZE"
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Statements *)

let gen_bool env e =
  let t = gen_value env e in
  if not (T.equal t T.TBool) then err env e.A.eloc "a BOOLEAN condition is required, not %s" (T.name t)

let rec gen_stmt env (st : A.stmt) =
  Eff.work Costs.stmt_node;
  match st.A.s with
  | A.SEmpty -> ()
  | A.SAssign (dst, rhs) ->
      let dt = gen_addr env dst in
      let rt = gen_value env rhs in
      if not (T.assignable ~dst:dt ~src:rt) then
        err env st.A.sloc "cannot assign %s to %s" (T.name rt) (T.name dt);
      (match (T.base dt, T.base rt) with
      | T.TArr a, T.TStrLit _ when T.equal a.T.elem T.TChar ->
          emit env (Instr.StrToArr (a.T.hi - a.T.lo + 1))
      | (T.TArr _ | T.TRec _), _ -> emit env Instr.CopyVal
      | _ -> ());
      (match dt with
      | T.TSub (_, lo, hi) -> emit env (Instr.RangeCheck (lo, hi))
      | _ -> ());
      emit env Instr.StoreInd
  | A.SCall e -> (
      match e.A.e with
      | A.ECall (f, args) -> ignore (gen_call env st.A.sloc f args ~statement:true)
      | _ -> ignore (gen_call env st.A.sloc e [] ~statement:true))
  | A.SIf (branches, els) ->
      let end_jumps = ref [] in
      List.iter
        (fun (cond, body) ->
          gen_bool env cond;
          let jf = here env in
          emit env (Instr.JumpIfNot 0);
          List.iter (gen_stmt env) body;
          let je = here env in
          emit env (Instr.Jump 0);
          end_jumps := je :: !end_jumps;
          patch env jf (Instr.JumpIfNot (here env)))
        branches;
      List.iter (gen_stmt env) els;
      let e = here env in
      List.iter (fun pc -> patch env pc (Instr.Jump e)) !end_jumps
  | A.SCase (sel, arms, els) -> gen_case env sel arms els
  | A.SWhile (cond, body) ->
      let start = here env in
      gen_bool env cond;
      let jf = here env in
      emit env (Instr.JumpIfNot 0);
      List.iter (gen_stmt env) body;
      emit env (Instr.Jump start);
      patch env jf (Instr.JumpIfNot (here env))
  | A.SRepeat (body, cond) ->
      let start = here env in
      List.iter (gen_stmt env) body;
      gen_bool env cond;
      emit env (Instr.JumpIfNot start)
  | A.SLoop body ->
      let exits = ref [] in
      env.loops <- exits :: env.loops;
      let start = here env in
      List.iter (gen_stmt env) body;
      emit env (Instr.Jump start);
      env.loops <- List.tl env.loops;
      let e = here env in
      List.iter (fun pc -> patch env pc (Instr.Jump e)) !exits
  | A.SExit -> (
      match env.loops with
      | exits :: _ ->
          exits := here env :: !exits;
          emit env (Instr.Jump 0)
      | [] -> err env st.A.sloc "EXIT is only legal inside LOOP")
  | A.SFor (v, lo, hi, by, body) -> gen_for env st.A.sloc v lo hi by body
  | A.SWith (d, body) -> (
      let dt = gen_addr env d in
      match T.base dt with
      | T.TRec rinfo ->
          let temp = alloc_temp env in
          emit env (Instr.StoreLocal temp);
          env.withs <- (rinfo, temp) :: env.withs;
          List.iter (gen_stmt env) body;
          env.withs <- List.tl env.withs;
          free_temp env
      | T.TErr ->
          emit env Instr.Pop;
          List.iter (gen_stmt env) body
      | t ->
          err env d.A.eloc "WITH requires a record designator, not %s" (T.name t);
          emit env Instr.Pop;
          List.iter (gen_stmt env) body)
  | A.SReturn None ->
      if env.result <> None then err env st.A.sloc "this function must RETURN a value";
      emit env Instr.Ret
  | A.SReturn (Some e) -> (
      let t = gen_value env e in
      match env.result with
      | None ->
          err env st.A.sloc "RETURN with a value is only legal in a function procedure";
          emit env Instr.Pop;
          emit env Instr.Ret
      | Some rt ->
          if not (T.assignable ~dst:rt ~src:t) then
            err env st.A.sloc "RETURN value of type %s does not match result type %s" (T.name t)
              (T.name rt);
          emit env Instr.RetVal)
  | A.SRaise e ->
      let t = gen_value env e in
      if T.base t <> T.TExc && not (T.is_error t) then
        err env st.A.sloc "RAISE requires an EXCEPTION value, not %s" (T.name t);
      emit env Instr.RaiseI
  | A.STry (body, handlers, fin) -> gen_try env body handlers fin
  | A.SLock (mu, body) ->
      let t = gen_value env mu in
      if T.base t <> T.TMutex && not (T.is_error t) then
        err env mu.A.eloc "LOCK requires a MUTEX, not %s" (T.name t);
      emit env Instr.Pop;
      List.iter (gen_stmt env) body

and gen_case env sel arms els =
  let selt = gen_value env sel in
  if not (T.is_ordinal selt) then err env sel.A.eloc "CASE selector must be ordinal";
  let temp = alloc_temp env in
  emit env (Instr.StoreLocal temp);
  env.ctx.Ctx.full_visibility <- true;
  let seen = Hashtbl.create 16 in
  let check_label n loc =
    if Hashtbl.mem seen n then err env loc "duplicate case label %d" n else Hashtbl.add seen n ()
  in
  let arm_tests =
    List.map
      (fun (arm : A.case_arm) ->
        let tests =
          List.filter_map
            (fun label ->
              match label with
              | A.SetOne e -> (
                  match Const_eval.ordinal_const env.ctx e with
                  | Some (n, t) ->
                      if not (T.compatible t selt) then
                        err env e.A.eloc "case label type %s does not match selector %s" (T.name t)
                          (T.name selt);
                      check_label n e.A.eloc;
                      Some (`One n)
                  | None -> None)
              | A.SetRange (a, b) -> (
                  match (Const_eval.ordinal_const env.ctx a, Const_eval.ordinal_const env.ctx b) with
                  | Some (x, _), Some (y, _) ->
                      if x > y then err env a.A.eloc "empty case label range";
                      for i = x to y do
                        check_label i a.A.eloc
                      done;
                      Some (`Range (x, y))
                  | _ -> None))
            arm.A.labels
        in
        (tests, arm.A.arm_body))
      arms
  in
  (* first the dispatch tests, then the bodies *)
  let body_jumps =
    List.map
      (fun (tests, body) ->
        let sites =
          List.map
            (fun test ->
              match test with
              | `One n ->
                  emit env (Instr.LoadLocal temp);
                  emit env (Instr.Const (V.VInt n));
                  emit env (Instr.Cmp Instr.REq);
                  let j = here env in
                  emit env (Instr.JumpIf 0);
                  j
              | `Range (x, y) ->
                  emit env (Instr.LoadLocal temp);
                  emit env (Instr.Const (V.VInt x));
                  emit env (Instr.Cmp Instr.RGe);
                  let jskip = here env in
                  emit env (Instr.JumpIfNot 0);
                  emit env (Instr.LoadLocal temp);
                  emit env (Instr.Const (V.VInt y));
                  emit env (Instr.Cmp Instr.RLe);
                  let j = here env in
                  emit env (Instr.JumpIf 0);
                  patch env jskip (Instr.JumpIfNot (here env));
                  j)
            tests
        in
        (sites, body))
      arm_tests
  in
  (* no label matched *)
  let end_jumps = ref [] in
  (match els with
  | Some body ->
      List.iter (gen_stmt env) body;
      let j = here env in
      emit env (Instr.Jump 0);
      end_jumps := j :: !end_jumps
  | None -> emit env Instr.CaseError);
  List.iter
    (fun (sites, body) ->
      let pc = here env in
      List.iter (fun site -> patch env site (Instr.JumpIf pc)) sites;
      List.iter (gen_stmt env) body;
      let j = here env in
      emit env (Instr.Jump 0);
      end_jumps := j :: !end_jumps)
    body_jumps;
  let e = here env in
  List.iter (fun pc -> patch env pc (Instr.Jump e)) !end_jumps;
  free_temp env

and gen_for env loc (v : A.ident) lo hi by body =
  let vexpr = { A.e = A.EName { A.prefix = None; id = v }; eloc = v.A.iloc } in
  let step =
    match by with
    | None -> 1
    | Some e -> (
        env.ctx.Ctx.full_visibility <- true;
        match Const_eval.ordinal_const env.ctx e with
        | Some (n, _) ->
            if n = 0 then err env e.A.eloc "FOR step cannot be zero";
            n
        | None -> 1)
  in
  (* v := lo *)
  let vt = gen_addr env vexpr in
  if not (T.is_ordinal vt) then err env loc "FOR control variable must be ordinal";
  let lot = gen_value env lo in
  if not (T.compatible vt lot) then err env lo.A.eloc "FOR start value has the wrong type";
  emit env Instr.StoreInd;
  (* limit -> temp *)
  let limit = alloc_temp env in
  let hit = gen_value env hi in
  if not (T.compatible vt hit) then err env hi.A.eloc "FOR limit has the wrong type";
  emit env (Instr.StoreLocal limit);
  let start = here env in
  ignore (gen_value env vexpr);
  emit env (Instr.LoadLocal limit);
  emit env (Instr.Cmp (if step > 0 then Instr.RLe else Instr.RGe));
  let jf = here env in
  emit env (Instr.JumpIfNot 0);
  List.iter (gen_stmt env) body;
  ignore (gen_addr env vexpr);
  emit env (Instr.Const (V.VInt (abs step)));
  emit env (if step > 0 then Instr.IncInd else Instr.DecInd);
  emit env (Instr.Jump start);
  patch env jf (Instr.JumpIfNot (here env));
  free_temp env

and gen_try env body handlers fin =
  (* TRY body EXCEPT e1: h1 | ... FINALLY f END
     compiles to:
       try H; body; endtry; f; jmp done
       H: (exc on stack)
          dup; <e1>; cmp eq; jt B1; ...; f'; reraise
       B1: pop; h1; f''; jmp done
     The FINALLY code is duplicated on each path (classic inline
     expansion). *)
  let handler_site = here env in
  emit env (Instr.Try 0);
  List.iter (gen_stmt env) body;
  emit env Instr.EndTry;
  List.iter (gen_stmt env) fin;
  let jdone0 = here env in
  emit env (Instr.Jump 0);
  patch env handler_site (Instr.Try (here env));
  let end_jumps = ref [ jdone0 ] in
  (* exception value is on the stack at handler entry *)
  let match_sites =
    List.map
      (fun ((q : A.qualident), hbody) ->
        emit env Instr.Dup;
        (match Ctx.lookup_qualident env.ctx q ~use_off:max_int with
        | Some ({ S.skind = S.SVar (_, ty); _ } as sym) ->
            if T.base ty <> T.TExc then
              err env q.A.id.A.iloc "%s is not an EXCEPTION" (A.qual_to_string q)
            else ignore (sym_value env q.A.id.A.iloc sym)
        | Some _ | None ->
            err env q.A.id.A.iloc "EXCEPT requires an EXCEPTION name";
            emit env (Instr.Const V.VNil));
        emit env (Instr.Cmp Instr.REq);
        let j = here env in
        emit env (Instr.JumpIf 0);
        (j, hbody))
      handlers
  in
  (* nothing matched: run FINALLY and re-raise *)
  List.iter (gen_stmt env) fin;
  emit env Instr.ReRaise;
  List.iter
    (fun (site, hbody) ->
      let pc = here env in
      patch env site (Instr.JumpIf pc);
      emit env Instr.Pop (* the exception value *);
      List.iter (gen_stmt env) hbody;
      List.iter (gen_stmt env) fin;
      let j = here env in
      emit env (Instr.Jump 0);
      end_jumps := j :: !end_jumps)
    match_sites;
  let e = here env in
  List.iter (fun pc -> patch env pc (Instr.Jump e)) !end_jumps

(* ------------------------------------------------------------------ *)
(* Entry point: generate the code unit for one statement part. *)

let local_descriptors (scope : Symtab.t) ~key =
  Symtab.select scope (fun (sym : S.t) ->
      match sym.S.skind with
      | S.SVar (S.HLocal slot, ty) ->
          Some (slot, Tydesc.of_ty ~exc_key:(key ^ "#" ^ sym.S.sname) ty)
      | _ -> None)

(* Global frame layout for a module-level scope. *)
let frame_layout (scope : Symtab.t) ~frame_key ~size =
  let slots =
    Symtab.select scope (fun (sym : S.t) ->
        match sym.S.skind with
        | S.SVar (S.HGlobal (fk, slot), ty) when String.equal fk frame_key ->
            Some (slot, Tydesc.of_ty ~exc_key:(frame_key ^ "#" ^ sym.S.sname) ty)
        | _ -> None)
  in
  (frame_key, slots, size)

let emit_job (gj : P.gen_job) : Cunit.t =
  let nparams = match gj.P.gj_sig with None -> 0 | Some s -> List.length s.T.params in
  let env =
    {
      ctx = gj.P.gj_ctx;
      code = Vec.create Instr.Ret;
      key = gj.P.gj_key;
      result = (match gj.P.gj_sig with None -> None | Some s -> s.T.result);
      nparams;
      next_temp = gj.P.gj_nslots;
      max_slot = gj.P.gj_nslots;
      withs = [];
      loops = [];
    }
  in
  env.ctx.Ctx.full_visibility <- true;
  List.iter (gen_stmt env) gj.P.gj_body;
  (match env.result with None -> emit env Instr.Ret | Some _ -> emit env Instr.NoReturn);
  {
    Cunit.u_key = gj.P.gj_key;
    u_nparams = nparams;
    u_nslots = env.max_slot;
    u_locals = local_descriptors gj.P.gj_ctx.Ctx.scope ~key:gj.P.gj_key;
    u_code = Vec.to_array env.code;
  }
