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
   unchanged.  The rendering covers each structured type's identity
   (where it is declared, the same in every compilation) and its
   structure — names, bounds, field slots — so it tells an alias from a
   copy of a type's structure, and an edited type from the old one.
   Pointer recursion is broken by identity: a pointer met again renders
   as its identity alone. *)

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
      p e.Types.euid;
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
      p "arr:";
      p a.Types.auid;
      p "[";
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
      p r.Types.ruid;
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
      if List.mem pt.Types.puid !seen then begin
        p "^";
        p pt.Types.puid
      end
      else begin
        seen := pt.Types.puid :: !seen;
        p "ptr:";
        p pt.Types.puid;
        p pt.Types.pname;
        p "->";
        render_ty seen buf pt.Types.target
      end
  | Types.TSet s ->
      p "set:";
      p s.Types.suid;
      p "[";
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
   identity.  Type identities are where types are declared, so two
   analyses of one text against the same imported artifacts have one
   identity. *)
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
