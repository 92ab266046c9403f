(* Declaration analysis: turning declaration syntax into symbol-table
   entries.

   This runs inside the parser/declaration-analyzer task of each stream,
   entering symbols into the stream's scope as declarations are parsed
   ("One compiler task performs syntax analysis on the entire stream and
   semantic analysis on declarations", paper §3).  Fast completion of
   declaration parts is what resolves other streams' DKY blockages, so
   everything here is single-pass; the only deferred work is pointer
   forward references, fixed up at scope completion.

   Procedure headings get special treatment (paper §2.4): the parent
   scope processes the heading and produces a [heading_info] — the
   symbol-table entries to be *copied* into the child scope (alternative
   1).  Under alternative 3 the child scope re-derives the same entries
   from the heading tokens; PIM's restriction of formal types to
   (open-array) qualified identifiers guarantees the two derivations
   produce identical entries. *)

open Mcc_m2
open Mcc_ast
open Mcc_sched
module A = Ast
module T = Types
module S = Symbol

(* Enter [sym] in the context's scope with redeclaration checks. *)
let enter_sym ctx loc (sym : S.t) =
  Eff.work Costs.decl_entry;
  (* "there is one DKY event per symbol" under optimistic handling: every
     entry carries an event, and "the overhead of maintaining so many
     events outweighs the advantages of the technique" (paper 2.3.3) *)
  if ctx.Ctx.strategy = Symtab.Optimistic then Eff.work Costs.symbol_event;
  if Builtins.is_builtin sym.S.sname then
    Ctx.error ctx loc "%s is a builtin name and cannot be redeclared" sym.S.sname
  else
    match Symtab.enter ctx.Ctx.scope sym with
    | `Ok -> ()
    | `Dup _ -> Ctx.error ctx loc "%s is already declared in this scope" sym.S.sname

(* ------------------------------------------------------------------ *)
(* Type resolution *)

(* Where a structured type is declared, which is its identity
   (Types.uid): the scope (a definition module's apart from its
   implementation's), the declaration that introduces the type and,
   when that declaration does not name it, its ordinal among the types
   the declaration introduces.  One task analyses a scope's
   declarations in order, and a heading's formal types are qualified
   identifiers, so alternative 3's re-derivation introduces no type:
   identities are the same under every schedule, engine and process. *)
type origin = { o_scope : string; o_decl : string; mutable o_anon : int }

let origin ctx decl = { o_scope = ctx.Ctx.scope.Symtab.sname; o_decl = decl; o_anon = 0 }

let named_uid o = T.uid (String.concat " " [ o.o_scope; o.o_decl ])

let anon_uid o =
  o.o_anon <- o.o_anon + 1;
  T.uid (String.concat " " [ o.o_scope; o.o_decl; string_of_int o.o_anon ])

(* The identity of a new type: [name] is set for the type a declaration
   names, not for the types nested in it. *)
let uid origin ~name = if name = "" then anon_uid origin else named_uid origin

let rec resolve_type ctx ~origin ?(name = "") (te : A.type_expr) ~use_off : T.ty =
  match te with
  | A.TName q -> Ctx.lookup_type ctx q ~use_off
  | A.TEnum ids ->
      let info =
        { T.euid = uid origin ~name; ename = name; elems = Array.of_list (List.map (fun (i : A.ident) -> i.name) ids) }
      in
      let ty = T.TEnum info in
      List.iteri
        (fun ord (id : A.ident) ->
          enter_sym ctx id.iloc (S.make ~name:id.name ~def_off:id.iloc.Loc.off (S.SEnumLit (ty, ord))))
        ids;
      ty
  | A.TSubrange (a, b) -> (
      match (Const_eval.ordinal_const ctx a, Const_eval.ordinal_const ctx b) with
      | Some (lo, ta), Some (hi, tb) ->
          if not (T.compatible ta tb) then begin
            Ctx.error ctx a.A.eloc "subrange bounds have incompatible types";
            T.TErr
          end
          else if lo > hi then begin
            Ctx.error ctx a.A.eloc "empty subrange [%d..%d]" lo hi;
            T.TErr
          end
          else T.TSub (T.base ta, lo, hi)
      | _ -> T.TErr)
  | A.TArray (indexes, elem) ->
      let elem_ty = resolve_type ctx ~origin elem ~use_off in
      (* one array type per index, the first index's outermost: the one
         a declaration names *)
      let rec dims ~outer = function
        | [] -> elem_ty
        | ix :: rest -> (
            let acc = dims ~outer:false rest in
            let arr t =
              let lo, hi = T.bounds t in
              let auid = if outer then uid origin ~name else anon_uid origin in
              T.TArr { T.auid; index = t; lo; hi; elem = acc }
            in
            match resolve_type ctx ~origin ix ~use_off with
            | T.TErr -> T.TErr
            | t when T.is_ordinal t && T.base t <> T.TInt && T.base t <> T.TCard -> arr t
            | T.TSub _ as t -> arr t
            | t ->
                Ctx.error ctx use_loc_dummy "array index type %s must be a bounded ordinal" (T.name t);
                T.TErr)
      in
      dims ~outer:true indexes
  | A.TRecord sections ->
      (* variant parts are flattened: every field of every arm gets its
         own slot (the VM does not overlay storage), the tag field is an
         ordinary field, and field names must be unique across the whole
         record as in Modula-2 *)
      let fields = ref [] in
      let slot = ref 0 in
      let add (id : A.ident) fty =
        if List.mem_assoc id.A.name !fields then
          Ctx.error ctx id.A.iloc "duplicate record field %s" id.A.name
        else begin
          fields := (id.A.name, { T.fty; fslot = !slot }) :: !fields;
          incr slot
        end
      in
      let rec section (sec : A.field_section) =
        match sec with
        | A.FFields { f_names; f_type } ->
            let fty = resolve_type ctx ~origin f_type ~use_off in
            List.iter (fun id -> add id fty) f_names
        | A.FVariant { v_tag; v_tag_type; v_arms; v_else } ->
            let tag_ty = Ctx.lookup_type ctx v_tag_type ~use_off in
            if not (T.is_ordinal tag_ty) then
              Ctx.error ctx v_tag_type.A.id.A.iloc "variant tag type must be ordinal";
            (match v_tag with Some id -> add id tag_ty | None -> ());
            List.iter
              (fun (labels, arm_fields) ->
                List.iter
                  (fun label ->
                    let check e =
                      match Const_eval.ordinal_const ctx e with
                      | Some (_, lt) ->
                          if not (T.compatible lt tag_ty) then
                            Ctx.error ctx e.A.eloc "variant label type does not match the tag"
                      | None -> ()
                    in
                    match label with
                    | A.SetOne e -> check e
                    | A.SetRange (a, b) ->
                        check a;
                        check b)
                  labels;
                List.iter section arm_fields)
              v_arms;
            List.iter section v_else
      in
      List.iter section sections;
      T.TRec { T.ruid = uid origin ~name; rname = name; fields = List.rev !fields }
  | A.TPointer (target, _loc) -> (
      let info = { T.puid = uid origin ~name; pname = name; target = T.TErr } in
      match target with
      | A.TName q ->
          (* possibly a forward reference: defer to scope completion *)
          ctx.Ctx.fixups <- (info, q) :: ctx.Ctx.fixups;
          T.TPtr info
      | _ ->
          info.T.target <- resolve_type ctx ~origin target ~use_off;
          T.TPtr info)
  | A.TSet base -> (
      let bty = resolve_type ctx ~origin base ~use_off in
      match bty with
      | T.TErr -> T.TErr
      | t when T.is_ordinal t -> (
          let lo, hi = T.bounds t in
          if lo < 0 || hi - lo >= T.max_set_bits then begin
            Ctx.error ctx use_loc_dummy "set base type range [%d..%d] too large (max %d elements)" lo
              hi T.max_set_bits;
            T.TErr
          end
          else T.TSet { T.suid = uid origin ~name; sbase = t; slo = lo; shi = hi })
      | t ->
          Ctx.error ctx use_loc_dummy "set base type %s must be ordinal" (T.name t);
          T.TErr)
  | A.TProcType (formals, result) ->
      let params =
        List.map
          (fun (ft : A.formal_type) ->
            let t = Ctx.lookup_type ctx ft.ft_name ~use_off in
            { T.mode_var = ft.ft_var; pty = (if ft.ft_open then T.TOpenArr t else t) })
          formals
      in
      let result = Option.map (fun q -> Ctx.lookup_type ctx q ~use_off) result in
      T.TProc { T.params; result }

and use_loc_dummy = Loc.none

(* ------------------------------------------------------------------ *)
(* Declarations *)

let const_decl ctx (id : A.ident) (e : A.expr) =
  match Const_eval.eval ctx e with
  | Some (v, ty) -> enter_sym ctx id.iloc (S.make ~name:id.name ~def_off:id.iloc.Loc.off (S.SConst (v, ty)))
  | None -> enter_sym ctx id.iloc (S.make ~name:id.name ~def_off:id.iloc.Loc.off (S.SConst (Value.VInt 0, T.TErr)))

(* The type of declaration [decl]; a plain type name, the common case,
   makes no origin. *)
let decl_type ctx decl ?name (te : A.type_expr) ~use_off =
  match te with
  | A.TName q -> Ctx.lookup_type ctx q ~use_off
  | _ -> resolve_type ctx ~origin:(origin ctx decl) ?name te ~use_off

let type_decl ctx (id : A.ident) (te : A.type_expr) =
  let ty = decl_type ctx id.name ~name:id.name te ~use_off:id.iloc.Loc.off in
  enter_sym ctx id.iloc (S.make ~name:id.name ~def_off:id.iloc.Loc.off (S.SType ty))

(* An opaque type of a definition module: a pointer-like type of its
   own. *)
let opaque_decl ctx (id : A.ident) =
  let info = { T.puid = named_uid (origin ctx id.name); pname = id.name; target = T.TErr } in
  enter_sym ctx id.iloc (S.make ~name:id.name ~def_off:id.iloc.Loc.off (S.SType (T.TPtr info)))

let var_decl ctx (ids : A.ident list) (te : A.type_expr) =
  let ty =
    match ids with
    | [] -> T.TErr
    | id :: _ -> decl_type ctx id.A.name te ~use_off:id.A.iloc.Loc.off
  in
  List.iter
    (fun (id : A.ident) ->
      let slot = Ctx.alloc_slot ctx in
      let home =
        if ctx.Ctx.is_module_level then S.HGlobal (ctx.Ctx.frame_key, slot) else S.HLocal slot
      in
      enter_sym ctx id.iloc (S.make ~name:id.name ~def_off:id.iloc.Loc.off (S.SVar (home, ty))))
    ids

(* ------------------------------------------------------------------ *)
(* Procedure headings *)

type param_entry = {
  pe_name : string;
  pe_var : bool;
  pe_ty : T.ty;
  pe_off : int; (* declaration offset of the formal's name *)
  pe_slot : int;
}

type heading_info = {
  hi_name : string;
  hi_key : string; (* code-unit key, e.g. "M.P" *)
  hi_sig : T.signature;
  hi_params : param_entry list;
}

let resolve_params ctx (sections : A.param_section list) ~use_off =
  let entries = ref [] in
  let slot = ref 0 in
  List.iter
    (fun (sec : A.param_section) ->
      let base_ty = Ctx.lookup_type ctx sec.p_type.A.ft_name ~use_off in
      let pty = if sec.p_type.A.ft_open then T.TOpenArr base_ty else base_ty in
      List.iter
        (fun (id : A.ident) ->
          entries :=
            { pe_name = id.name; pe_var = sec.p_var; pe_ty = pty; pe_off = id.iloc.Loc.off; pe_slot = !slot }
            :: !entries;
          incr slot)
        sec.p_names)
    sections;
  List.rev !entries

(* Process a procedure heading in the scope of [ctx] (the parent), enter
   the SProc symbol, and return the entries to copy into the child scope
   (heading alternative 1).  [stream] is the child stream compiling the
   body, when the Splitter diverted one. *)
let proc_heading ctx (h : A.proc_heading) ~stream : heading_info =
  let use_off = h.h_name.A.iloc.Loc.off in
  let params = resolve_params ctx h.h_params ~use_off in
  let result = Option.map (fun q -> Ctx.lookup_type ctx q ~use_off) h.h_result in
  let sig_ = { T.params = List.map (fun p -> { T.mode_var = p.pe_var; pty = p.pe_ty }) params; result } in
  let key = ctx.Ctx.path ^ "." ^ h.h_name.A.name in
  (* An implementation-module procedure that is declared in the module's
     own interface implements that interface entry: check conformity. *)
  (if ctx.Ctx.is_module_level && not ctx.Ctx.is_def then
     match ctx.Ctx.scope.Symtab.parent with
     | Some ({ Symtab.kind = Symtab.KDef _; _ } as def_scope) -> (
         match
           Symtab.lookup_qualified ~strategy:ctx.Ctx.strategy ~stats:ctx.Ctx.stats ~scope:def_scope
             h.h_name.A.name
         with
         | Some { S.skind = S.SProc info; _ } ->
             if not (T.signature_equal info.S.sig_ sig_) then
               Ctx.error ctx h.h_name.A.iloc
                 "signature of %s does not match its declaration in the definition module"
                 h.h_name.A.name
         | _ -> ())
     | _ -> ());
  let info = { S.sig_; key; external_ = ctx.Ctx.is_def; stream } in
  enter_sym ctx h.h_name.A.iloc
    (S.make ~name:h.h_name.A.name ~def_off:use_off (S.SProc info));
  { hi_name = h.h_name.A.name; hi_key = key; hi_sig = sig_; hi_params = params }

(* Copy the heading's parameter entries into the child scope (alternative
   1: "process the procedure heading in the parent scope and copy the
   symbol table entries generated by this processing into the symbol
   table for the child scope"). *)
let enter_params child_ctx (hi : heading_info) =
  List.iter
    (fun pe ->
      Eff.work Costs.copy_entry;
      ignore
        (Symtab.enter child_ctx.Ctx.scope
           (S.make ~name:pe.pe_name ~def_off:pe.pe_off
              (S.SVar (S.HParam (pe.pe_slot, pe.pe_var), pe.pe_ty)))))
    (hi.hi_params);
  child_ctx.Ctx.next_slot <- List.length hi.hi_params

(* ------------------------------------------------------------------ *)
(* Scope completion *)

(* Resolve pointer forward references.  Runs in the scope's own task
   after all declarations have been entered, before the table is marked
   complete; targets may live in outer scopes, where the normal DKY
   machinery applies. *)
let finish_scope ctx =
  List.iter
    (fun ((info : T.ptr_info), q) ->
      let ty = Ctx.lookup_type ctx q ~use_off:max_int in
      info.T.target <- ty)
    (List.rev ctx.Ctx.fixups);
  ctx.Ctx.fixups <- []
