(* The sequential baseline compiler.

   The traditional compiler the concurrent one is evaluated against
   (paper §4.2): same lexer, same parser/declaration analysis, same
   statement analyzer/code generator, run in one thread with none of the
   concurrent machinery — no token queues, no splitter (procedure bodies
   parse inline), no importer task (interfaces are processed
   depth-first at their import sites), no events and no task scheduling.
   Work units are accumulated directly ([Eff] direct mode), giving the
   sequential virtual compile time that Table 1 reports and that
   self-relative speedups are compared against.

   The output program is byte-identical to the concurrent compiler's for
   the same source (the test suite checks this): unit keys, frame
   layouts and diagnostics are schedule-independent by construction. *)

open Mcc_m2
open Mcc_sched
open Mcc_sem
open Mcc_codegen
module P = Mcc_parse.Parser
module A = Mcc_ast.Ast

type result = {
  program : Cunit.program;
  diags : Diag.d list;
  ok : bool;
  cost_units : float; (* virtual sequential execution time, work units *)
  stats : Lookup_stats.t;
}

type comp = {
  store : Source_store.t;
  diags : Diag.t;
  stats : Lookup_stats.t;
  registry : Modreg.t;
  missing : (string, unit) Hashtbl.t;
  mutable jobs : P.gen_job list; (* reversed *)
  keys : (string, unit) Hashtbl.t;
      (* the keys in [jobs]: a redeclared procedure's block repeats the
         key of the first declaration, which owns the code unit (as the
         concurrent Splitter decides) *)
  mutable frames : (string * (int * Tydesc.t) list * int) list;
}

(* Depth-first interface processing at import sites: the sequential
   analogue of the importer + once-only table. *)
let rec ensure_def comp name : Symtab.t option =
  let scope, created = Modreg.intern comp.registry name in
  if created then begin
    match Source_store.def_src comp.store name with
    | None ->
        Hashtbl.replace comp.missing name ();
        Symtab.mark_complete scope;
        None
    | Some src ->
        let file = Source_store.def_file name in
        let ctx =
          Ctx.make ~scope ~file ~diags:comp.diags ~strategy:Symtab.Sequential ~stats:comp.stats
            ~registry:comp.registry
            ~frame_key:(name ^ "!def")
            ~path:name ~is_module_level:true ~is_def:true
        in
        let p = P.create ~cb:(callbacks comp) (Reader.of_lexer (Lexer.create ~file src)) in
        P.parse_def_module ctx p ~expected_name:name;
        let fk = name ^ "!def" in
        let _, slots, size = Emit.frame_layout scope ~frame_key:fk ~size:ctx.Ctx.next_slot in
        comp.frames <- (fk, slots, size) :: comp.frames;
        Some scope
  end
  else if Hashtbl.mem comp.missing name then None
  else Some scope

and callbacks comp : P.callbacks =
  {
    P.cb_import = (fun _ctx (mid : A.ident) -> ensure_def comp mid.A.name);
    P.cb_heading = (fun _ _ ~stream -> ignore stream (* no splitter: never called *));
    P.cb_body =
      (fun gj ->
        (if gj.P.gj_sig = None then begin
           let ctx = gj.P.gj_ctx in
           let fk = ctx.Ctx.frame_key in
           let _, slots, size =
             Emit.frame_layout ctx.Ctx.scope ~frame_key:fk ~size:ctx.Ctx.next_slot
           in
           comp.frames <- (fk, slots, size) :: comp.frames
         end);
        if not (Hashtbl.mem comp.keys gj.P.gj_key) then begin
          Hashtbl.replace comp.keys gj.P.gj_key ();
          comp.jobs <- gj :: comp.jobs
        end);
  }

let compile (store : Source_store.t) : result =
  let m = Source_store.main_name store in
  let comp =
    {
      store;
      diags = Diag.create ();
      stats = Lookup_stats.create ();
      registry = Modreg.create ();
      missing = Hashtbl.create 8;
      jobs = [];
      keys = Hashtbl.create 64;
      frames = [];
    }
  in
  (* a fresh run in an empty context: nothing charged by an earlier
     compile or scan counts, and ids count from 0 *)
  Eff.within ~obs:(Mcc_obs.Evlog.ctx ()) Eff.Direct (fun () ->
      let own_def = if Source_store.has_def store m then ensure_def comp m else None in
      let main_scope = Symtab.create ?parent:own_def (Symtab.KMain m) in
      let mod_ctx =
        Ctx.make ~scope:main_scope ~file:(Source_store.main_file store) ~diags:comp.diags
          ~strategy:Symtab.Sequential ~stats:comp.stats ~registry:comp.registry ~frame_key:m
          ~path:m ~is_module_level:true ~is_def:false
      in
      let p =
        P.create ~cb:(callbacks comp)
          (Reader.of_lexer
             (Lexer.create ~file:(Source_store.main_file store) (Source_store.main_src store)))
      in
      P.parse_impl_module mod_ctx p ~expected_name:m;
      (* all declarations of every scope are complete: analyze statements
         and generate code, then merge by concatenation.  Jobs are emitted
         newest first, each taken off [comp.jobs] before its emission so
         that its AST and context can be freed once its unit exists; the
         units come out in declaration order. *)
      let rec emit_all units =
        match comp.jobs with
        | [] -> units
        | gj :: rest ->
            comp.jobs <- rest;
            emit_all (Emit.emit_job gj :: units)
      in
      let units = emit_all [] in
      let program = Cunit.link ~entry:m ~frames:comp.frames units in
      {
        program;
        diags = Diag.sorted comp.diags;
        ok = not (Diag.has_errors comp.diags);
        cost_units = Eff.get_direct_total ();
        stats = comp.stats;
      })
