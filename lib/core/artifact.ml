(* Self-contained interface artifacts.

   The paper's once-only table (§2.1) guarantees each definition module
   is processed once *per compilation*; an artifact extends that economy
   *across* compilations.  It packages everything a def-module stream
   produces — the completed scope's exported symbols (types embedded
   structurally), the interface's global frame layout, the diagnostics
   its analysis emitted, and the direct imports its importer would have
   discovered — keyed by a content fingerprint (Build_cache).

   Installation replays exactly the externally visible effects of the
   skipped Lexor/Importer/DefParse stream: the imports are ensured (so
   transitively reached interfaces register and contribute their frames,
   as they would cold), the symbols are re-entered, the frame is merged,
   the diagnostics are replayed, and the scope's completion event — the
   interface's avoided event — is signaled.  Explicit Costs charges keep
   warm DES timings honest.

   Artifacts are deeply immutable after capture: def-module scopes are
   never patched once complete (opaque-pointer fixups resolve before
   [Symtab.mark_complete]; procedure entries in interfaces carry no
   stream), and [Symtab.entries] filters placeholders, so an artifact
   contains no events, mutexes or closures and is Marshal-safe. *)

open Mcc_m2
open Mcc_sched
open Mcc_sem
open Mcc_codegen

type frame = {
  f_key : string;
  f_slots : (int * Tydesc.t) list;
  f_size : int;
}

type t = {
  a_name : string;
  a_imports : string list; (* direct imports, in source order *)
  a_symbols : Symbol.t list; (* exported entries, (offset, name)-sorted *)
  a_slices : (string * string) list; (* exported name -> slice digest, name-sorted *)
  a_install : string; (* stable digest over imports + frame + diags *)
  a_shape : string; (* stable whole-interface digest: install + slices *)
  a_frame : frame;
  a_diags : Diag.d list; (* diagnostics of the interface's analysis, sorted *)
  a_digest : string; (* MD5 over the payload fields above, set at capture *)
}

(* ------------------------------------------------------------------ *)
(* Slice digests.

   One *slice* is one exported declaration; its digest must be equal
   across compilations exactly when the declaration's interface is
   unchanged.  Type uids are process-local (recompiling the same source
   allocates fresh ones), so the rendering is purely structural — names,
   shapes, bounds, field slots — never uids.  Named-pointer recursion is
   broken by name, which is sound under Modula-2 name equivalence: two
   interface types with the same name in the same module are the same
   declaration. *)

let rec render_ty seen buf (ty : Types.ty) =
  let p s = Buffer.add_string buf s in
  let int n = p (string_of_int n) in
  let range lo hi =
    int lo;
    p "..";
    int hi
  in
  match ty with
  | Types.TInt -> p "INTEGER"
  | Types.TCard -> p "CARDINAL"
  | Types.TBool -> p "BOOLEAN"
  | Types.TChar -> p "CHAR"
  | Types.TReal -> p "REAL"
  | Types.TBitset -> p "BITSET"
  | Types.TStrLit n ->
      p "STR";
      int n
  | Types.TNil -> p "NIL"
  | Types.TExc -> p "EXCEPTION"
  | Types.TMutex -> p "MUTEX"
  | Types.TErr -> p "<err>"
  | Types.TEnum e ->
      p "enum:";
      p e.Types.ename;
      p "(";
      Array.iteri
        (fun i el ->
          if i > 0 then p ",";
          p el)
        e.Types.elems;
      p ")"
  | Types.TSub (b, lo, hi) ->
      p "sub[";
      range lo hi;
      p "]:";
      render_ty seen buf b
  | Types.TArr a ->
      p "arr[";
      range a.Types.lo a.Types.hi;
      p ",";
      render_ty seen buf a.Types.index;
      p "]:";
      render_ty seen buf a.Types.elem
  | Types.TOpenArr e ->
      p "openarr:";
      render_ty seen buf e
  | Types.TRec r ->
      p "rec:";
      p r.Types.rname;
      p "{";
      List.iter
        (fun (fname, (f : Types.field)) ->
          p fname;
          p "@";
          int f.Types.fslot;
          p ":";
          render_ty seen buf f.Types.fty;
          p ";")
        r.Types.fields;
      p "}"
  | Types.TPtr pt ->
      if List.mem pt.Types.pname !seen then begin
        p "^";
        p pt.Types.pname
      end
      else begin
        seen := pt.Types.pname :: !seen;
        p "ptr:";
        p pt.Types.pname;
        p "->";
        render_ty seen buf pt.Types.target
      end
  | Types.TSet s ->
      p "set[";
      range s.Types.slo s.Types.shi;
      p "]:";
      render_ty seen buf s.Types.sbase
  | Types.TProc sg -> render_signature seen buf sg

and render_signature seen buf (sg : Types.signature) =
  Buffer.add_string buf "proc(";
  List.iter
    (fun (prm : Types.param) ->
      if prm.Types.mode_var then Buffer.add_string buf "VAR ";
      render_ty seen buf prm.Types.pty;
      Buffer.add_char buf ';')
    sg.Types.params;
  Buffer.add_char buf ')';
  match sg.Types.result with
  | None -> ()
  | Some r ->
      Buffer.add_char buf ':';
      render_ty seen buf r

let render_home buf home =
  let p s = Buffer.add_string buf s in
  match home with
  | Symbol.HGlobal (key, slot) ->
      p "global(";
      p key;
      p ",";
      p (string_of_int slot);
      p ")"
  | Symbol.HLocal slot ->
      p "local(";
      p (string_of_int slot);
      p ")"
  | Symbol.HParam (slot, by_ref) ->
      p "param(";
      p (string_of_int slot);
      p ",";
      p (string_of_bool by_ref);
      p ")"

let slice_digest (s : Symbol.t) : string =
  let buf = Buffer.create 128 in
  let p str = Buffer.add_string buf str in
  let seen = ref [] in
  p s.Symbol.sname;
  Buffer.add_char buf '|';
  (match s.Symbol.alias_of with
  | Some m ->
      p "alias:";
      p m;
      p "|"
  | None -> ());
  (match s.Symbol.skind with
  | Symbol.SConst (v, ty) ->
      p "const|";
      p (Value.to_string v);
      p "|";
      render_ty seen buf ty
  | Symbol.SType ty ->
      p "type|";
      render_ty seen buf ty
  | Symbol.SVar (home, ty) ->
      p "var|";
      render_home buf home;
      Buffer.add_char buf '|';
      render_ty seen buf ty
  | Symbol.SProc pi ->
      p "proc|";
      p pi.Symbol.key;
      p "|";
      p (string_of_bool pi.Symbol.external_);
      p "|";
      render_signature seen buf pi.Symbol.sig_
  | Symbol.SEnumLit (ty, ord) ->
      p "enumlit|";
      p (string_of_int ord);
      p "|";
      render_ty seen buf ty
  | Symbol.SModule m ->
      p "module|";
      p m
  | Symbol.SBuiltin _ -> p "builtin"
  | Symbol.SPlaceholder _ -> p "placeholder");
  Digest.to_hex (Digest.string (Buffer.contents buf))

let slices_of symbols =
  List.sort compare (List.map (fun s -> (s.Symbol.sname, slice_digest s)) symbols)

(* [a_install]: what installing the artifact does to a compilation
   regardless of which names are looked up — the imports it ensures, the
   global frame it merges, the diagnostics it replays.  Tydesc values and
   diagnostics contain no uids, so Marshal over them is stable. *)
let install_digest ~imports ~frame ~diags =
  Digest.to_hex (Digest.string (Marshal.to_string (imports, frame, diags) []))

(* [a_shape]: the early-cutoff comparison — a regenerated interface with
   an identical shape is byte-identical for every downstream purpose, so
   invalidation propagation stops at it. *)
let shape_digest ~install ~slices =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (install :: List.map (fun (n, d) -> n ^ "=" ^ d) slices)))

let slice t name = List.assoc_opt name t.a_slices

(* Digest of everything but [a_digest] itself.  Artifacts are
   Marshal-safe and deeply immutable, so the serialized payload is a
   stable byte string: recomputing after an on-disk round trip (or after
   bit-rot / truncation) either reproduces the captured digest or proves
   corruption.  The fingerprint the artifact is stored under is not part
   of it: the cache can move an artifact to a new fingerprint (a re-key)
   without touching its bytes, and the digest doubles as the artifact's
   identity.  Symbols carry type uids, so two analyses of the same text
   that allocate types have different identities. *)
let payload_digest ~name ~imports ~symbols ~slices ~install ~shape ~frame ~diags =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (name, imports, symbols, slices, install, shape, frame, diags) []))

let digest t =
  payload_digest ~name:t.a_name ~imports:t.a_imports ~symbols:t.a_symbols ~slices:t.a_slices
    ~install:t.a_install ~shape:t.a_shape ~frame:t.a_frame ~diags:t.a_diags

let verify t = String.equal t.a_digest (digest t)

let capture ~name ~imports ~scope ~frame ~diags =
  let symbols = Symtab.export scope in
  let slices = slices_of symbols in
  let install = install_digest ~imports ~frame ~diags in
  let shape = shape_digest ~install ~slices in
  {
    a_name = name;
    a_imports = imports;
    a_symbols = symbols;
    a_slices = slices;
    a_install = install;
    a_shape = shape;
    a_frame = frame;
    a_diags = diags;
    a_digest = payload_digest ~name ~imports ~symbols ~slices ~install ~shape ~frame ~diags;
  }

(* Re-install into a freshly interned scope.  The caller has already
   ensured [a_imports]; this charges the install work, re-enters the
   symbols, merges the frame, replays the diagnostics and completes the
   scope (signaling the avoided event). *)
let install t ~scope ~merger ~diags =
  Eff.work
    ((List.length t.a_symbols * Costs.cache_install_entry) + Costs.cache_install_frame);
  Symtab.import_export scope t.a_symbols;
  Cunit.add_frame merger t.a_frame.f_key t.a_frame.f_slots t.a_frame.f_size;
  List.iter (Diag.add_d diags) t.a_diags;
  Symtab.mark_complete scope

(* ------------------------------------------------------------------ *)
(* Uid census.

   For on-disk persistence: unmarshalled types carry uids allocated by
   the process that wrote them; the loader bumps this process's counter
   past the maximum so fresh types can never collide (uid equality is
   name equivalence).  For the refresh prepass: an artifact may be kept
   across a re-analysis only if it reaches no uid that a replaced
   artifact took with it.  [walk] calls [visit] on every uid node it
   meets, in a fixed structural order, and descends into a node only
   when [first] says it is the node's first visit: pointer targets can
   form cycles. *)

let rec walk first visit (ty : Types.ty) =
  let node uid children =
    visit uid;
    if first uid then List.iter (walk first visit) children
  in
  match ty with
  | Types.TEnum e -> node e.Types.euid []
  | Types.TSub (b, _, _) -> walk first visit b
  | Types.TArr a -> node a.Types.auid [ a.Types.index; a.Types.elem ]
  | Types.TOpenArr e -> walk first visit e
  | Types.TRec r -> node r.Types.ruid (List.map (fun (_, f) -> f.Types.fty) r.Types.fields)
  | Types.TPtr p -> node p.Types.puid [ p.Types.target ]
  | Types.TSet s -> node s.Types.suid [ s.Types.sbase ]
  | Types.TProc sg -> walk_signature first visit sg
  | _ -> ()

and walk_signature first visit (sg : Types.signature) =
  List.iter (fun p -> walk first visit p.Types.pty) sg.Types.params;
  Option.iter (walk first visit) sg.Types.result

let walk_symbol first visit (s : Symbol.t) =
  match s.Symbol.skind with
  | Symbol.SConst (_, ty) | Symbol.SType ty | Symbol.SVar (_, ty) | Symbol.SEnumLit (ty, _) ->
      walk first visit ty
  | Symbol.SProc pi -> walk_signature first visit pi.Symbol.sig_
  | Symbol.SModule _ | Symbol.SBuiltin _ | Symbol.SPlaceholder _ -> ()

let uids t =
  let seen = Hashtbl.create 64 in
  let first uid = (not (Hashtbl.mem seen uid)) && (Hashtbl.replace seen uid (); true) in
  List.iter (walk_symbol first ignore) t.a_symbols;
  seen

let max_uid t = Hashtbl.fold (fun uid () acc -> max uid acc) (uids t) 0

(* The type nodes exported name [n] reaches, in walk order, a node met
   twice listed twice.  One declaration reaches few nodes, so the
   visited set is a list. *)
let nodes_of t n =
  let seen = ref [] and acc = ref [] in
  let first uid = (not (List.mem uid !seen)) && (seen := uid :: !seen; true) in
  List.iter
    (fun (s : Symbol.t) ->
      if String.equal s.Symbol.sname n then walk_symbol first (fun uid -> acc := uid :: !acc) s)
    t.a_symbols;
  List.rev !acc
