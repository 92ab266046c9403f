(** Declaration analysis: turning declaration syntax into symbol-table
    entries, inline as the parser runs (paper §3) — fast completion of
    declaration parts is what resolves other streams' DKY blockages.

    Procedure headings follow paper §2.4: the parent scope processes the
    heading into a {!heading_info} whose parameter entries are copied
    into the child scope (alternative 1); under alternative 3 the child
    re-derives identical entries itself. *)

open Mcc_ast

(** Enter a symbol in the context's scope, rejecting builtin
    redeclaration and duplicates.  Charges per-entry work (plus
    per-symbol event overhead under optimistic handling). *)
val enter_sym : Ctx.t -> Mcc_m2.Loc.t -> Symbol.t -> unit

val const_decl : Ctx.t -> Ast.ident -> Ast.expr -> unit

(** Resolve a type declaration's type expression and enter the name:
    names via lookup, enumerations (entering their literals), subranges,
    (multi-dimensional) arrays, records including variant parts
    (flattened; tag and arm fields all get slots), pointers (named
    targets deferred to {!finish_scope} as forward references), sets,
    procedure types.  Each structured type's identity ({!Types.uid}) is
    where it is declared: the scope, the declaration and, for a type
    the declaration does not name, its ordinal among the declaration's
    types. *)
val type_decl : Ctx.t -> Ast.ident -> Ast.type_expr -> unit

(** Enter an opaque type of a definition module ([TYPE T;]). *)
val opaque_decl : Ctx.t -> Ast.ident -> unit

val var_decl : Ctx.t -> Ast.ident list -> Ast.type_expr -> unit

(** One formal parameter as the parent derived it. *)
type param_entry = {
  pe_name : string;
  pe_var : bool;
  pe_ty : Types.ty;
  pe_off : int;  (** declaration offset of the formal's name *)
  pe_slot : int;
}

(** What the parent publishes to the child stream. *)
type heading_info = {
  hi_name : string;
  hi_key : string;  (** code-unit key, e.g. "M.P" *)
  hi_sig : Types.signature;
  hi_params : param_entry list;
}

val resolve_params : Ctx.t -> Ast.param_section list -> use_off:int -> param_entry list

(** Process a heading in the parent scope: resolve parameters and result,
    check conformity against the module's own interface when applicable,
    enter the SProc symbol, and return the entries for the child.
    [stream] is the child stream compiling the body, when split. *)
val proc_heading : Ctx.t -> Ast.proc_heading -> stream:int option -> heading_info

(** Alternative 1's copy: enter the heading's parameter entries into the
    child scope. *)
val enter_params : Ctx.t -> heading_info -> unit

(** Resolve pointer forward references; runs in the scope's own task
    after all declarations, before the table is marked complete. *)
val finish_scope : Ctx.t -> unit
