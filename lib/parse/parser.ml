(* The parser / declarations analyzer.

   One such task runs per stream (paper §3): it performs syntax analysis
   on the whole stream, semantic analysis on declarations *inline*
   (entering symbols into the stream's scope as they are parsed, via
   [Mcc_sem.Declare]), marks the scope's symbol table complete, and only
   *builds a parse tree* for the statement part — statement semantic
   analysis is deferred to the statement-analyzer/code-generator task:

     "One compiler task performs syntax analysis on the entire stream and
      semantic analysis on declarations as would be done in a traditional
      sequential compiler.  A parse tree is built for statements, but
      semantic analysis of statements is deferred to a subsequent task
      ...  The symbol table for the declarations is marked complete
      before the statement parse tree is built."

   The same grammar code serves four callers, differing only in the
   callbacks [t.cb]:
   - the concurrent module parser (splits at [SplitMark] tokens left by
     the Splitter, publishing headings to child streams),
   - the concurrent procedure-stream parser,
   - the definition-module parser,
   - the sequential compiler (no split marks: procedure bodies are parsed
     inline, statement jobs are queued for a later pass).

   Error recovery is panic-mode to the next semicolon or section keyword;
   recovery decisions depend only on the token stream, so sequential and
   concurrent compilations diagnose erroneous programs identically. *)

open Mcc_m2
open Mcc_ast
open Mcc_sched
module A = Ast
module D = Mcc_sem.Declare
module S = Mcc_sem.Symbol
module Ctx = Mcc_sem.Ctx
module Symtab = Mcc_sem.Symtab
module Types = Mcc_sem.Types

(* A completed statement part, ready for the statement analyzer / code
   generator. *)
type gen_job = {
  gj_ctx : Ctx.t; (* the (completed) scope the statements execute in *)
  gj_key : string; (* code-unit key *)
  gj_sig : Types.signature option; (* None for a module body *)
  gj_body : A.stmt list;
  gj_nslots : int; (* local frame size: params + locals *)
  gj_size : int; (* statement-tree size (long/short task ordering) *)
}

type callbacks = {
  cb_import : Ctx.t -> A.ident -> Symtab.t option;
      (* resolve an imported module to its interface scope, starting its
         stream if this is the first reference (the once-only table);
         None if no such interface exists *)
  cb_heading : Ctx.t -> D.heading_info -> stream:int -> unit;
      (* a procedure heading whose body was split away has been processed
         in the parent scope: publish it to the child stream *)
  cb_body : gen_job -> unit;
      (* a statement part is ready: spawn or queue its StmtGen work *)
}

type t = { rd : Reader.t; cb : callbacks; mutable tok : Token.t }

let create ~cb rd =
  let p = { rd; cb; tok = Token.eof Loc.none } in
  p.tok <- Reader.next rd;
  p

(* ------------------------------------------------------------------ *)
(* Token plumbing *)

let advance p =
  Eff.work Costs.parse_token;
  p.tok <- Reader.next p.rd

let loc p = p.tok.Token.loc

let err ctx p fmt = Ctx.error ctx (loc p) fmt

let describe p = Token.describe p.tok

(* Panic-mode recovery: skip to a token that can plausibly start a new
   declaration/statement. *)
let sync p =
  let stop () =
    match p.tok.Token.kind with
    | Token.Eof -> true
    | Token.Sym Token.Semi -> true
    | Token.Kw
        ( Token.END | Token.CONST | Token.TYPE | Token.VAR | Token.PROCEDURE | Token.BEGIN
        | Token.IMPORT | Token.FROM | Token.ELSE | Token.ELSIF | Token.UNTIL ) ->
        true
    | _ -> false
  in
  while not (stop ()) do
    advance p
  done;
  if Token.is_sym p.tok Token.Semi then advance p

let expect_sym ctx p s =
  if Token.is_sym p.tok s then advance p
  else begin
    err ctx p "expected '%s' but found %s" (Token.sym_name s) (describe p);
    sync p
  end

let expect_kw ctx p k =
  if Token.is_kw p.tok k then advance p
  else begin
    err ctx p "expected %s but found %s" (Token.kw_name k) (describe p);
    sync p
  end

let expect_ident ctx p : A.ident =
  match p.tok.Token.kind with
  | Token.Ident name ->
      let id = { A.name; iloc = loc p } in
      advance p;
      id
  | _ ->
      err ctx p "expected an identifier but found %s" (describe p);
      sync p;
      { A.name = "<error>"; iloc = loc p }

let accept_sym p s =
  if Token.is_sym p.tok s then begin
    advance p;
    true
  end
  else false

let accept_kw p k =
  if Token.is_kw p.tok k then begin
    advance p;
    true
  end
  else false

(* ident [ '.' ident ] — type positions and EXCEPT labels *)
let parse_qualident ctx p : A.qualident =
  let first = expect_ident ctx p in
  if Token.is_sym p.tok Token.Dot && Token.is_ident (Reader.peek p.rd) then begin
    advance p;
    let second = expect_ident ctx p in
    { A.prefix = Some first; id = second }
  end
  else { A.prefix = None; id = first }

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec parse_expr ctx p : A.expr =
  let l = loc p in
  let lhs = parse_simple ctx p in
  let relop =
    match p.tok.Token.kind with
    | Token.Sym Token.Eq -> Some A.Eq
    | Token.Sym Token.Neq -> Some A.Neq
    | Token.Sym Token.Lt -> Some A.Lt
    | Token.Sym Token.Le -> Some A.Le
    | Token.Sym Token.Gt -> Some A.Gt
    | Token.Sym Token.Ge -> Some A.Ge
    | Token.Kw Token.IN -> Some A.In
    | _ -> None
  in
  match relop with
  | None -> lhs
  | Some op ->
      advance p;
      let rhs = parse_simple ctx p in
      { A.e = A.EBin (op, lhs, rhs); eloc = l }

and parse_simple ctx p : A.expr =
  let l = loc p in
  let base =
    if accept_sym p Token.Minus then
      let t = parse_term ctx p in
      { A.e = A.EUn (A.Neg, t); eloc = l }
    else if accept_sym p Token.Plus then
      let t = parse_term ctx p in
      { A.e = A.EUn (A.Pos, t); eloc = l }
    else parse_term ctx p
  in
  let rec go acc =
    let addop =
      match p.tok.Token.kind with
      | Token.Sym Token.Plus -> Some A.Add
      | Token.Sym Token.Minus -> Some A.Sub
      | Token.Kw Token.OR -> Some A.Or
      | _ -> None
    in
    match addop with
    | None -> acc
    | Some op ->
        let l' = loc p in
        advance p;
        let rhs = parse_term ctx p in
        go { A.e = A.EBin (op, acc, rhs); eloc = l' }
  in
  go base

and parse_term ctx p : A.expr =
  let base = parse_factor ctx p in
  let rec go acc =
    let mulop =
      match p.tok.Token.kind with
      | Token.Sym Token.Star -> Some A.Mul
      | Token.Sym Token.Slash -> Some A.Divide
      | Token.Kw Token.DIV -> Some A.Div
      | Token.Kw Token.MOD -> Some A.Mod
      | Token.Kw Token.AND | Token.Sym Token.Amp -> Some A.And
      | _ -> None
    in
    match mulop with
    | None -> acc
    | Some op ->
        let l' = loc p in
        advance p;
        let rhs = parse_factor ctx p in
        go { A.e = A.EBin (op, acc, rhs); eloc = l' }
  in
  go base

and parse_factor ctx p : A.expr =
  let l = loc p in
  Eff.work Costs.expr_node;
  match p.tok.Token.kind with
  | Token.IntLit n ->
      advance p;
      { A.e = A.EInt n; eloc = l }
  | Token.RealLit f ->
      advance p;
      { A.e = A.EReal f; eloc = l }
  | Token.CharLit c ->
      advance p;
      { A.e = A.EChar c; eloc = l }
  | Token.StrLit s ->
      advance p;
      { A.e = A.EStr s; eloc = l }
  | Token.Sym Token.Lparen ->
      advance p;
      let e = parse_expr ctx p in
      expect_sym ctx p Token.Rparen;
      e
  | Token.Kw Token.NOT | Token.Sym Token.Tilde ->
      advance p;
      let e = parse_factor ctx p in
      { A.e = A.EUn (A.Not, e); eloc = l }
  | Token.Sym Token.Lbrace ->
      (* untyped set constructor: BITSET *)
      parse_set ctx p None l
  | Token.Ident _ -> parse_designator_or_call ctx p
  | _ ->
      err ctx p "expected an expression but found %s" (describe p);
      sync p;
      { A.e = A.EInt 0; eloc = l }

and parse_set ctx p tyq l : A.expr =
  expect_sym ctx p Token.Lbrace;
  let elems = ref [] in
  if not (Token.is_sym p.tok Token.Rbrace) then begin
    let parse_elem () =
      let a = parse_expr ctx p in
      if accept_sym p Token.DotDot then begin
        let b = parse_expr ctx p in
        elems := A.SetRange (a, b) :: !elems
      end
      else elems := A.SetOne a :: !elems
    in
    parse_elem ();
    while accept_sym p Token.Comma do
      parse_elem ()
    done
  end;
  expect_sym ctx p Token.Rbrace;
  { A.e = A.ESet (tyq, List.rev !elems); eloc = l }

(* designator { '.' id | '[' exprs ']' | '^' } [ '(' actuals ')' ]* ;
   a name followed by '{' is a typed set constructor. *)
and parse_designator_or_call ctx p : A.expr =
  let l = loc p in
  let first = expect_ident ctx p in
  (* typed set constructor: T{...} or M.T{...} *)
  if Token.is_sym p.tok Token.Lbrace then parse_set ctx p (Some { A.prefix = None; id = first }) l
  else if
    Token.is_sym p.tok Token.Dot
    && Token.is_ident (Reader.peek p.rd)
    && Token.is_sym (Reader.peek2 p.rd) Token.Lbrace
  then begin
    advance p;
    let second = expect_ident ctx p in
    parse_set ctx p (Some { A.prefix = Some first; id = second }) l
  end
  else begin
    let base = { A.e = A.EName { A.prefix = None; id = first }; eloc = l } in
    parse_selectors ctx p base
  end

and parse_selectors ctx p base : A.expr =
  match p.tok.Token.kind with
  | Token.Sym Token.Dot ->
      let l = loc p in
      advance p;
      let f = expect_ident ctx p in
      parse_selectors ctx p { A.e = A.EField (base, f); eloc = l }
  | Token.Sym Token.Lbracket ->
      let l = loc p in
      advance p;
      let first = parse_expr ctx p in
      let rest = ref [ first ] in
      while accept_sym p Token.Comma do
        rest := parse_expr ctx p :: !rest
      done;
      expect_sym ctx p Token.Rbracket;
      parse_selectors ctx p { A.e = A.EIndex (base, List.rev !rest); eloc = l }
  | Token.Sym Token.Caret ->
      let l = loc p in
      advance p;
      parse_selectors ctx p { A.e = A.EDeref base; eloc = l }
  | Token.Sym Token.Lparen ->
      let l = loc p in
      advance p;
      let args = ref [] in
      if not (Token.is_sym p.tok Token.Rparen) then begin
        args := [ parse_expr ctx p ];
        while accept_sym p Token.Comma do
          args := parse_expr ctx p :: !args
        done
      end;
      expect_sym ctx p Token.Rparen;
      parse_selectors ctx p { A.e = A.ECall (base, List.rev !args); eloc = l }
  | _ -> base

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec parse_stmt_seq ctx p : A.stmt list =
  let stop () =
    match p.tok.Token.kind with
    | Token.Eof -> true
    | Token.Kw
        ( Token.END | Token.ELSE | Token.ELSIF | Token.UNTIL | Token.EXCEPT | Token.FINALLY ) ->
        true
    | Token.Sym Token.Bar -> true
    | _ -> false
  in
  let stmts = ref [] in
  let rec go () =
    if not (stop ()) then begin
      (* recovery must always make progress: [sync] stops at tokens
         (CONST, VAR, ...) that are not statement stoppers, which would
         otherwise loop here forever *)
      let before = p.tok.Token.loc.Loc.off in
      let st = parse_stmt ctx p in
      stmts := st :: !stmts;
      if accept_sym p Token.Semi then go ()
      else if not (stop ()) then begin
        err ctx p "expected ';' between statements but found %s" (describe p);
        sync p;
        if p.tok.Token.loc.Loc.off = before && not (Token.is_eof p.tok) then advance p;
        go ()
      end
    end
  in
  go ();
  List.rev !stmts

and parse_stmt ctx p : A.stmt =
  let l = loc p in
  Eff.work Costs.stmt_node;
  match p.tok.Token.kind with
  | Token.Sym Token.Semi -> { A.s = A.SEmpty; sloc = l }
  | Token.Ident _ -> (
      let d = parse_designator_or_call ctx p in
      if accept_sym p Token.Assign then begin
        let rhs = parse_expr ctx p in
        { A.s = A.SAssign (d, rhs); sloc = l }
      end
      else { A.s = A.SCall d; sloc = l })
  | Token.Kw Token.IF ->
      advance p;
      let cond = parse_expr ctx p in
      expect_kw ctx p Token.THEN;
      let body = parse_stmt_seq ctx p in
      let branches = ref [ (cond, body) ] in
      while Token.is_kw p.tok Token.ELSIF do
        advance p;
        let c = parse_expr ctx p in
        expect_kw ctx p Token.THEN;
        let b = parse_stmt_seq ctx p in
        branches := (c, b) :: !branches
      done;
      let els = if accept_kw p Token.ELSE then parse_stmt_seq ctx p else [] in
      expect_kw ctx p Token.END;
      { A.s = A.SIf (List.rev !branches, els); sloc = l }
  | Token.Kw Token.CASE ->
      advance p;
      let sel = parse_expr ctx p in
      expect_kw ctx p Token.OF;
      let arms = ref [] in
      let parse_arm () =
        if not (Token.is_kw p.tok Token.ELSE || Token.is_kw p.tok Token.END) then begin
          let labels = ref [] in
          let parse_label () =
            let a = parse_expr ctx p in
            if accept_sym p Token.DotDot then begin
              let b = parse_expr ctx p in
              labels := A.SetRange (a, b) :: !labels
            end
            else labels := A.SetOne a :: !labels
          in
          parse_label ();
          while accept_sym p Token.Comma do
            parse_label ()
          done;
          expect_sym ctx p Token.Colon;
          let body = parse_stmt_seq ctx p in
          arms := { A.labels = List.rev !labels; arm_body = body } :: !arms
        end
      in
      parse_arm ();
      while accept_sym p Token.Bar do
        parse_arm ()
      done;
      let els = if accept_kw p Token.ELSE then Some (parse_stmt_seq ctx p) else None in
      expect_kw ctx p Token.END;
      { A.s = A.SCase (sel, List.rev !arms, els); sloc = l }
  | Token.Kw Token.WHILE ->
      advance p;
      let cond = parse_expr ctx p in
      expect_kw ctx p Token.DO;
      let body = parse_stmt_seq ctx p in
      expect_kw ctx p Token.END;
      { A.s = A.SWhile (cond, body); sloc = l }
  | Token.Kw Token.REPEAT ->
      advance p;
      let body = parse_stmt_seq ctx p in
      expect_kw ctx p Token.UNTIL;
      let cond = parse_expr ctx p in
      { A.s = A.SRepeat (body, cond); sloc = l }
  | Token.Kw Token.LOOP ->
      advance p;
      let body = parse_stmt_seq ctx p in
      expect_kw ctx p Token.END;
      { A.s = A.SLoop body; sloc = l }
  | Token.Kw Token.FOR ->
      advance p;
      let v = expect_ident ctx p in
      expect_sym ctx p Token.Assign;
      let lo = parse_expr ctx p in
      expect_kw ctx p Token.TO;
      let hi = parse_expr ctx p in
      let by = if accept_kw p Token.BY then Some (parse_expr ctx p) else None in
      expect_kw ctx p Token.DO;
      let body = parse_stmt_seq ctx p in
      expect_kw ctx p Token.END;
      { A.s = A.SFor (v, lo, hi, by, body); sloc = l }
  | Token.Kw Token.WITH ->
      advance p;
      let d = parse_designator_or_call ctx p in
      expect_kw ctx p Token.DO;
      let body = parse_stmt_seq ctx p in
      expect_kw ctx p Token.END;
      { A.s = A.SWith (d, body); sloc = l }
  | Token.Kw Token.EXIT ->
      advance p;
      { A.s = A.SExit; sloc = l }
  | Token.Kw Token.RETURN ->
      advance p;
      let v =
        match p.tok.Token.kind with
        | Token.Sym Token.Semi | Token.Kw Token.END | Token.Kw Token.ELSE | Token.Kw Token.ELSIF
        | Token.Kw Token.UNTIL | Token.Kw Token.EXCEPT | Token.Kw Token.FINALLY | Token.Sym Token.Bar
          ->
            None
        | _ -> Some (parse_expr ctx p)
      in
      { A.s = A.SReturn v; sloc = l }
  | Token.Kw Token.RAISE ->
      advance p;
      let e = parse_expr ctx p in
      { A.s = A.SRaise e; sloc = l }
  | Token.Kw Token.TRY ->
      advance p;
      let body = parse_stmt_seq ctx p in
      let handlers = ref [] in
      if accept_kw p Token.EXCEPT then begin
        let parse_handler () =
          let q = parse_qualident ctx p in
          expect_sym ctx p Token.Colon;
          let b = parse_stmt_seq ctx p in
          handlers := (q, b) :: !handlers
        in
        parse_handler ();
        while accept_sym p Token.Bar do
          parse_handler ()
        done
      end;
      let fin = if accept_kw p Token.FINALLY then parse_stmt_seq ctx p else [] in
      expect_kw ctx p Token.END;
      { A.s = A.STry (body, List.rev !handlers, fin); sloc = l }
  | Token.Kw Token.LOCK ->
      advance p;
      let mu = parse_expr ctx p in
      expect_kw ctx p Token.DO;
      let body = parse_stmt_seq ctx p in
      expect_kw ctx p Token.END;
      { A.s = A.SLock (mu, body); sloc = l }
  | _ ->
      err ctx p "expected a statement but found %s" (describe p);
      sync p;
      { A.s = A.SEmpty; sloc = l }

(* ------------------------------------------------------------------ *)
(* Type expressions *)

let rec parse_type ctx p : A.type_expr =
  match p.tok.Token.kind with
  | Token.Sym Token.Lparen ->
      (* enumeration *)
      advance p;
      let ids = ref [ expect_ident ctx p ] in
      while accept_sym p Token.Comma do
        ids := expect_ident ctx p :: !ids
      done;
      expect_sym ctx p Token.Rparen;
      A.TEnum (List.rev !ids)
  | Token.Sym Token.Lbracket ->
      advance p;
      let lo = parse_expr ctx p in
      expect_sym ctx p Token.DotDot;
      let hi = parse_expr ctx p in
      expect_sym ctx p Token.Rbracket;
      A.TSubrange (lo, hi)
  | Token.Kw Token.ARRAY ->
      advance p;
      let ixs = ref [ parse_type ctx p ] in
      while accept_sym p Token.Comma do
        ixs := parse_type ctx p :: !ixs
      done;
      expect_kw ctx p Token.OF;
      let elem = parse_type ctx p in
      A.TArray (List.rev !ixs, elem)
  | Token.Kw Token.RECORD ->
      advance p;
      let sections = parse_field_sections ctx p in
      expect_kw ctx p Token.END;
      A.TRecord sections
  | Token.Kw Token.POINTER ->
      let l = loc p in
      advance p;
      expect_kw ctx p Token.TO;
      let target = parse_type ctx p in
      A.TPointer (target, l)
  | Token.Kw Token.SET ->
      advance p;
      expect_kw ctx p Token.OF;
      let base = parse_type ctx p in
      A.TSet base
  | Token.Kw Token.PROCEDURE ->
      advance p;
      let formals = ref [] in
      if accept_sym p Token.Lparen then begin
        let parse_formal () =
          let var = accept_kw p Token.VAR in
          let opened =
            if accept_kw p Token.ARRAY then begin
              expect_kw ctx p Token.OF;
              true
            end
            else false
          in
          let q = parse_qualident ctx p in
          formals := { A.ft_var = var; ft_open = opened; ft_name = q } :: !formals
        in
        if not (Token.is_sym p.tok Token.Rparen) then begin
          parse_formal ();
          while accept_sym p Token.Comma do
            parse_formal ()
          done
        end;
        expect_sym ctx p Token.Rparen
      end;
      let result =
        if accept_sym p Token.Colon then Some (parse_qualident ctx p) else None
      in
      A.TProcType (List.rev !formals, result)
  | Token.Ident _ -> A.TName (parse_qualident ctx p)
  | _ ->
      err ctx p "expected a type but found %s" (describe p);
      sync p;
      A.TName { A.prefix = None; id = { A.name = "<error>"; iloc = loc p } }

(* record field sections, including variant parts:
     fields   = idlist ':' type
     variant  = CASE [ident] ':' qualident OF
                  labels ':' sections { '|' labels ':' sections }
                [ELSE sections] END *)
and parse_field_sections ctx p : A.field_section list =
  let sections = ref [] in
  let rec go () =
    (match p.tok.Token.kind with
    | Token.Ident _ ->
        let names = ref [ expect_ident ctx p ] in
        while accept_sym p Token.Comma do
          names := expect_ident ctx p :: !names
        done;
        expect_sym ctx p Token.Colon;
        let fty = parse_type ctx p in
        sections := A.FFields { f_names = List.rev !names; f_type = fty } :: !sections
    | Token.Kw Token.CASE ->
        advance p;
        let tag =
          match (p.tok.Token.kind, (Reader.peek p.rd).Token.kind) with
          | Token.Ident _, Token.Sym Token.Colon ->
              let id = expect_ident ctx p in
              advance p (* ':' *);
              Some id
          | Token.Sym Token.Colon, _ ->
              advance p;
              None
          | _ -> None
        in
        let tag_type = parse_qualident ctx p in
        expect_kw ctx p Token.OF;
        let arms = ref [] in
        let parse_arm () =
          if not (Token.is_kw p.tok Token.ELSE || Token.is_kw p.tok Token.END) then begin
            let labels = ref [] in
            let parse_label () =
              let a = parse_expr ctx p in
              if accept_sym p Token.DotDot then begin
                let b = parse_expr ctx p in
                labels := A.SetRange (a, b) :: !labels
              end
              else labels := A.SetOne a :: !labels
            in
            parse_label ();
            while accept_sym p Token.Comma do
              parse_label ()
            done;
            expect_sym ctx p Token.Colon;
            let body = parse_field_sections ctx p in
            arms := (List.rev !labels, body) :: !arms
          end
        in
        parse_arm ();
        while accept_sym p Token.Bar do
          parse_arm ()
        done;
        let els = if accept_kw p Token.ELSE then parse_field_sections ctx p else [] in
        expect_kw ctx p Token.END;
        sections := A.FVariant { v_tag = tag; v_tag_type = tag_type; v_arms = List.rev !arms; v_else = els } :: !sections
    | _ -> ());
    if accept_sym p Token.Semi then go ()
  in
  go ();
  List.rev !sections

(* ------------------------------------------------------------------ *)
(* Procedure headings (syntax only; analysis is the caller's choice) *)

let parse_heading_syntax ctx p : A.proc_heading =
  (* current token is PROCEDURE *)
  expect_kw ctx p Token.PROCEDURE;
  let name = expect_ident ctx p in
  let params = ref [] in
  if accept_sym p Token.Lparen then begin
    let parse_section () =
      let var = accept_kw p Token.VAR in
      let names = ref [ expect_ident ctx p ] in
      while accept_sym p Token.Comma do
        names := expect_ident ctx p :: !names
      done;
      expect_sym ctx p Token.Colon;
      let opened =
        if accept_kw p Token.ARRAY then begin
          expect_kw ctx p Token.OF;
          true
        end
        else false
      in
      let q = parse_qualident ctx p in
      params :=
        { A.p_var = var; p_names = List.rev !names; p_type = { A.ft_var = var; ft_open = opened; ft_name = q } }
        :: !params
    in
    if not (Token.is_sym p.tok Token.Rparen) then begin
      parse_section ();
      while accept_sym p Token.Semi do
        parse_section ()
      done
    end;
    expect_sym ctx p Token.Rparen
  end;
  let result = if accept_sym p Token.Colon then Some (parse_qualident ctx p) else None in
  expect_sym ctx p Token.Semi;
  { A.h_name = name; h_params = List.rev !params; h_result = result }

(* ------------------------------------------------------------------ *)
(* Imports *)

let process_import_binding ctx p (mid : A.ident) =
  match p.cb.cb_import ctx mid with
  | None -> Ctx.error ctx mid.A.iloc "cannot find interface for module %s" mid.A.name
  | Some _scope ->
      Eff.work Costs.decl_entry;
      ignore
        (Symtab.enter ctx.Ctx.scope
           (S.make ~name:mid.A.name ~def_off:mid.A.iloc.Loc.off (S.SModule mid.A.name)))

let process_from_import ctx p (mid : A.ident) (names : A.ident list) =
  match p.cb.cb_import ctx mid with
  | None -> Ctx.error ctx mid.A.iloc "cannot find interface for module %s" mid.A.name
  | Some mscope ->
      List.iter
        (fun (n : A.ident) ->
          match
            Symtab.lookup_qualified ~strategy:ctx.Ctx.strategy ~stats:ctx.Ctx.stats ~scope:mscope
              n.A.name
          with
          | None -> Ctx.error ctx n.A.iloc "%s is not exported by module %s" n.A.name mid.A.name
          | Some sym ->
              Eff.work Costs.decl_entry;
              ignore
                (Symtab.enter ctx.Ctx.scope
                   (S.make ~alias_of:(Some mid.A.name) ~name:n.A.name ~def_off:n.A.iloc.Loc.off
                      sym.S.skind)))
        names

(* {IMPORT idlist ';' | FROM id IMPORT idlist ';'} *)
let rec parse_imports ctx p =
  match p.tok.Token.kind with
  | Token.Kw Token.IMPORT ->
      advance p;
      let ids = ref [ expect_ident ctx p ] in
      while accept_sym p Token.Comma do
        ids := expect_ident ctx p :: !ids
      done;
      expect_sym ctx p Token.Semi;
      List.iter (process_import_binding ctx p) (List.rev !ids);
      parse_imports ctx p
  | Token.Kw Token.FROM ->
      advance p;
      let m = expect_ident ctx p in
      expect_kw ctx p Token.IMPORT;
      let ids = ref [ expect_ident ctx p ] in
      while accept_sym p Token.Comma do
        ids := expect_ident ctx p :: !ids
      done;
      expect_sym ctx p Token.Semi;
      process_from_import ctx p m (List.rev !ids);
      parse_imports ctx p
  | _ -> ()

(* EXPORT [QUALIFIED] idlist ';' — parsed and ignored: definition-module
   exports are implicit in Modula-2+ *)
let parse_export ctx p =
  if accept_kw p Token.EXPORT then begin
    ignore (accept_kw p Token.QUALIFIED);
    ignore (expect_ident ctx p);
    while accept_sym p Token.Comma do
      ignore (expect_ident ctx p)
    done;
    expect_sym ctx p Token.Semi
  end

(* ------------------------------------------------------------------ *)
(* Declarations *)

(* How this parser instance handles procedure declarations:
   - [Heading_alt1]: the paper's alternative 1 — analyze the heading here
     (the parent scope), publish entries to the child stream via
     [cb_heading]; a [SplitMark] token follows the heading.
   - [Heading_alt3]: alternative 3 — analyze the heading here AND let the
     child re-derive its own entries; a [SplitMark] still follows.
   - inline (no SplitMark after the heading): the body follows textually;
     parse it recursively (sequential compiler, and definition modules
     where procedures are heading-only). *)

let rec parse_decls ctx p ~in_def =
  match p.tok.Token.kind with
  | Token.Kw Token.CONST ->
      advance p;
      let rec go () =
        match p.tok.Token.kind with
        | Token.Ident _ ->
            let id = expect_ident ctx p in
            expect_sym ctx p Token.Eq;
            let e = parse_expr ctx p in
            expect_sym ctx p Token.Semi;
            D.const_decl ctx id e;
            go ()
        | _ -> ()
      in
      go ();
      parse_decls ctx p ~in_def
  | Token.Kw Token.TYPE ->
      advance p;
      let rec go () =
        match p.tok.Token.kind with
        | Token.Ident _ ->
            let id = expect_ident ctx p in
            if accept_sym p Token.Semi then begin
              (* opaque type (definition modules): a unique pointer-ish type *)
              if not in_def then
                Ctx.error ctx id.A.iloc "opaque type %s is only legal in a definition module"
                  id.A.name;
              D.opaque_decl ctx id
            end
            else begin
              expect_sym ctx p Token.Eq;
              let te = parse_type ctx p in
              expect_sym ctx p Token.Semi;
              D.type_decl ctx id te
            end;
            go ()
        | _ -> ()
      in
      go ();
      parse_decls ctx p ~in_def
  | Token.Kw Token.VAR ->
      advance p;
      let rec go () =
        match p.tok.Token.kind with
        | Token.Ident _ ->
            let ids = ref [ expect_ident ctx p ] in
            while accept_sym p Token.Comma do
              ids := expect_ident ctx p :: !ids
            done;
            expect_sym ctx p Token.Colon;
            let te = parse_type ctx p in
            expect_sym ctx p Token.Semi;
            D.var_decl ctx (List.rev !ids) te;
            go ()
        | _ -> ()
      in
      go ();
      parse_decls ctx p ~in_def
  | Token.Kw Token.PROCEDURE when not in_def ->
      parse_proc_decl ctx p;
      parse_decls ctx p ~in_def
  | Token.Kw Token.PROCEDURE ->
      (* definition module: heading only *)
      let h = parse_heading_syntax ctx p in
      ignore (D.proc_heading ctx h ~stream:None);
      parse_decls ctx p ~in_def
  | _ -> ()

and parse_proc_decl ctx p =
  let h = parse_heading_syntax ctx p in
  match p.tok.Token.kind with
  | Token.SplitMark stream ->
      (* the Splitter diverted the body to stream [stream]; process the
         heading in this (parent) scope and publish it (alternative 1;
         under alternative 3 the child additionally re-derives it) *)
      advance p;
      (* the split mark is followed by the ';' that closed "END name" *)
      ignore (accept_sym p Token.Semi);
      let info = D.proc_heading ctx h ~stream:(Some stream) in
      p.cb.cb_heading ctx info ~stream
  | _ ->
      (* inline body: the sequential compiler's path *)
      let info = D.proc_heading ctx h ~stream:None in
      let child_scope =
        Symtab.create ~parent:ctx.Ctx.scope (Symtab.KProc (info.D.hi_key))
      in
      let child_ctx = Ctx.for_proc ctx ~scope:child_scope ~name:info.D.hi_name in
      D.enter_params child_ctx info;
      parse_block child_ctx p ~name:info.D.hi_name ~key:info.D.hi_key ~sig_:(Some info.D.hi_sig);
      expect_sym ctx p Token.Semi

(* block = {declaration} [BEGIN stmtseq] END name.  Marks the scope
   complete between declarations and statements, then hands the statement
   tree to [cb_body]. *)
and parse_block ctx p ~name ~key ~sig_ =
  parse_decls ctx p ~in_def:false;
  D.finish_scope ctx;
  Symtab.mark_complete ctx.Ctx.scope;
  let body = if accept_kw p Token.BEGIN then parse_stmt_seq ctx p else [] in
  expect_kw ctx p Token.END;
  let end_name = expect_ident ctx p in
  if end_name.A.name <> "<error>" && end_name.A.name <> name then
    Ctx.error ctx end_name.A.iloc "block of %s ends with name %s" name end_name.A.name;
  p.cb.cb_body
    {
      gj_ctx = ctx;
      gj_key = key;
      gj_sig = sig_;
      gj_body = body;
      gj_nslots = ctx.Ctx.next_slot;
      gj_size = A.seq_size body;
    }

(* ------------------------------------------------------------------ *)
(* Compilation units *)

(* DEFINITION MODULE id ';' imports export {definition} END id '.' *)
let parse_def_module ctx p ~expected_name =
  expect_kw ctx p Token.DEFINITION;
  expect_kw ctx p Token.MODULE;
  let name = expect_ident ctx p in
  if name.A.name <> expected_name then
    Ctx.error ctx name.A.iloc "definition module %s found where %s was expected" name.A.name
      expected_name;
  expect_sym ctx p Token.Semi;
  parse_imports ctx p;
  parse_export ctx p;
  parse_decls ctx p ~in_def:true;
  D.finish_scope ctx;
  Symtab.mark_complete ctx.Ctx.scope;
  expect_kw ctx p Token.END;
  let end_name = expect_ident ctx p in
  if end_name.A.name <> "<error>" && end_name.A.name <> name.A.name then
    Ctx.error ctx end_name.A.iloc "definition module %s ends with name %s" name.A.name
      end_name.A.name;
  expect_sym ctx p Token.Dot

(* [IMPLEMENTATION] MODULE id ';' imports block '.' *)
let parse_impl_module ctx p ~expected_name =
  ignore (accept_kw p Token.IMPLEMENTATION);
  expect_kw ctx p Token.MODULE;
  let name = expect_ident ctx p in
  if name.A.name <> expected_name then
    Ctx.error ctx name.A.iloc "module %s found where %s was expected" name.A.name expected_name;
  expect_sym ctx p Token.Semi;
  parse_imports ctx p;
  parse_block ctx p ~name:name.A.name ~key:name.A.name ~sig_:None;
  expect_sym ctx p Token.Dot

(* Parse a bare statement sequence (tests: the parse-print-reparse
   round-trip property).  Statement parsing builds trees without
   semantic analysis, so a dummy context suffices. *)
let parse_statement_sequence ctx p = parse_stmt_seq ctx p

(* A procedure stream (concurrent compiler): full heading tokens followed
   by the block.  Under alternative 1 the heading has already been
   analyzed by the parent and [heading] carries the entries to copy; under
   alternative 3 ([heading = None]) the parameter heading is processed
   here, in the child scope, producing entries identical to the parent's
   (paper §2.4: "taking care to guarantee that identical symbol table
   entries are produced in both scopes"). *)
let parse_proc_stream ctx p ~(heading : D.heading_info option) ~key =
  let h = parse_heading_syntax ctx p in
  let name, sig_ =
    match heading with
    | Some hi ->
        D.enter_params ctx hi;
        (hi.D.hi_name, hi.D.hi_sig)
    | None ->
        let use_off = h.A.h_name.A.iloc.Loc.off in
        let entries = D.resolve_params ctx h.A.h_params ~use_off in
        List.iter
          (fun (pe : D.param_entry) ->
            Eff.work Costs.decl_entry;
            ignore
              (Symtab.enter ctx.Ctx.scope
                 (S.make ~name:pe.D.pe_name ~def_off:pe.D.pe_off
                    (S.SVar (S.HParam (pe.D.pe_slot, pe.D.pe_var), pe.D.pe_ty)))))
          entries;
        ctx.Ctx.next_slot <- List.length entries;
        let params =
          List.map (fun (pe : D.param_entry) -> { Types.mode_var = pe.D.pe_var; pty = pe.D.pe_ty }) entries
        in
        let result = Option.map (fun q -> Ctx.lookup_type ctx q ~use_off) h.A.h_result in
        (h.A.h_name.A.name, { Types.params; result })
  in
  parse_block ctx p ~name ~key ~sig_:(Some sig_);
  ignore (accept_sym p Token.Semi)
