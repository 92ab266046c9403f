(* The sequential compiler rewired with a span around each layer call:
   [Parser.parse_def_module] and [parse_impl_module] with their
   declaration analysis ("parse"), [Emit.emit_job] ("emit") and
   [Cunit.link] ("link").  The wiring is [Seq_driver.compile]'s, so the
   program and diagnostics must be byte-identical to it; [compile]
   returns them for that check.

   The parser pulls tokens from the lexer one at a time, so a "parse"
   span also covers the lexing of its file.  [lex] times the lexer on
   its own over the same files afterwards, draining [Lexer.next]; the
   parse layer's self figures are the parse spans' less the lexer's.
   (Lexing each file whole with [Lexer.all] first keeps every token list
   alive while it is parsed, which slowed the pass by 40%.) *)

open Mcc_m2
open Mcc_sched
open Mcc_sem
open Mcc_codegen
module P = Mcc_parse.Parser
module A = Mcc_ast.Ast
module Source_store = Mcc_core.Source_store

type comp = {
  sp : Spans.t;
  store : Source_store.t;
  diags : Diag.t;
  stats : Lookup_stats.t;
  registry : Modreg.t;
  missing : (string, unit) Hashtbl.t;
  mutable jobs : P.gen_job list;
  mutable frames : (string * (int * Tydesc.t) list * int) list;
  mutable files : (string * string) list;  (** (file, source) lexed, reversed *)
}

let reader comp ~file src =
  comp.files <- (file, src) :: comp.files;
  Reader.of_lexer (Lexer.create ~file src)

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
        let p = P.create ~cb:(callbacks comp) (reader comp ~file src) in
        Spans.with_span comp.sp "parse" (fun () -> P.parse_def_module ctx p ~expected_name:name);
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
    P.cb_heading = (fun _ _ ~stream -> ignore stream);
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
        comp.jobs <- gj :: comp.jobs);
  }

type result = {
  program : Cunit.program;
  diags : Diag.d list;
  files : (string * string) list;  (** (file, source) in the order lexed *)
}

let compile sp (store : Source_store.t) : result =
  let m = Source_store.main_name store in
  let comp =
    {
      sp;
      store;
      diags = Diag.create ();
      stats = Lookup_stats.create ();
      registry = Modreg.create ();
      missing = Hashtbl.create 8;
      jobs = [];
      frames = [];
      files = [];
    }
  in
  let saved = !Eff.mode in
  Eff.mode := Eff.Direct;
  Fun.protect
    ~finally:(fun () -> Eff.mode := saved)
    (fun () ->
      let own_def = if Source_store.has_def store m then ensure_def comp m else None in
      let main_scope = Symtab.create ?parent:own_def (Symtab.KMain m) in
      let mod_ctx =
        Ctx.make ~scope:main_scope ~file:(Source_store.main_file store) ~diags:comp.diags
          ~strategy:Symtab.Sequential ~stats:comp.stats ~registry:comp.registry ~frame_key:m
          ~path:m ~is_module_level:true ~is_def:false
      in
      let p =
        P.create ~cb:(callbacks comp)
          (reader comp ~file:(Source_store.main_file store) (Source_store.main_src store))
      in
      Spans.with_span sp "parse" (fun () -> P.parse_impl_module mod_ctx p ~expected_name:m);
      let units =
        List.rev_map (fun gj -> Spans.with_span sp "emit" (fun () -> Emit.emit_job gj)) comp.jobs
      in
      let program =
        Spans.with_span sp "link" (fun () -> Cunit.link ~entry:m ~frames:comp.frames units)
      in
      { program; diags = Diag.sorted comp.diags; files = List.rev comp.files })

(* Lex each file in a "lex" span, discarding the tokens; returns the
   token count. *)
let lex sp files =
  List.fold_left
    (fun n (file, src) ->
      Spans.with_span sp "lex" (fun () ->
          let lx = Lexer.create ~file src in
          let rec drain n = if Token.is_eof (Lexer.next lx) then n + 1 else drain (n + 1) in
          n + drain 0))
    0 files
