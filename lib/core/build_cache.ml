(* The content-addressed build cache.

   Two stores, shared across compilations:

   - the *interface* store maps content fingerprints to interface
     artifacts (Artifact.t).  A fingerprint is a digest of the artifact
     format version, the definition module's source text, and the
     fingerprints of its direct imports — hence transitively of every
     interface it depends on.  Driver.config is deliberately excluded:
     compiler output is strategy/schedule/processor-independent (a
     property the test suite checks), so one artifact serves every
     configuration.
     Beside each artifact the index records its identity (the
     artifact's payload digest) and the digest of the source text it
     was analysed from, so a stale interface whose artifact is still
     valid moves to its new fingerprint without decoding or
     re-marshaling anything: a *re-key*.
   - the *module memo* maps whole-module keys to per-module compilation
     results (Project's incremental layer, the compile server's warm
     results).  A module key additionally digests the implementation
     source and a configuration tag, because a cached Driver.result
     embeds simulated timings that do depend on the configuration.
     The compile server keys on source fingerprints ([module_key]);
     Project keys on the identities of the artifacts in the module's
     interface closure ([identity_key]), so a re-keyed interface leaves
     its importers' keys as they were.  Both treat an import cycle as
     one unit ([condense]), whichever member a walk enters by.

   Fingerprinting must run inside engine tasks without yielding (the
   caller holds a memo lock, and a cooperative-engine yield under a lock
   would block every other task on it), so this module never calls
   Eff.work: the hashing work is returned as units for the caller to
   charge explicitly.  For the same reason the import scan used here is
   a charge-free re-implementation of Stream.run_importer's FSM on a
   zero-cost word scanner.  Each source text is digested and scanned
   once per cache ([source]), and everything that needs a source's
   digest or imports asks that table.

   Persistence: both stores can be saved under a cache directory, one
   file each, behind a header checked before anything is read (see
   "Cache files").  Each value is marshaled, digested and verified once:
   an artifact keeps the bytes it was marshaled to when stored (or read
   from its file), a memo entry the bytes it was last loaded or saved
   as, and a store with nothing new is not rewritten.  Loading decodes
   nothing: the files carry each entry's index fields beside its bytes,
   and a value is unmarshaled at its first use.  The interface file
   also records a type-uid floor, which the loader raises the uid
   counter past so fresh types cannot collide with stored ones. *)

open Mcc_m2
open Mcc_sched
module Evlog = Mcc_obs.Evlog
module Metrics = Mcc_obs.Metrics

(* The salt of every interface fingerprint and module key.  Changing it
   changes every key (and with them the serve memo's eviction
   tie-breaks); the layout of the cache files has its own tag,
   [format].  v4: the artifact no longer records its fingerprint, and
   its digest, its identity, is hex.  v3: Driver.result grew the
   cache-eviction counter.  v2 added per-declaration slice digests and
   the stable install/shape digests fine-grained invalidation
   compares. *)
let version = "mcc-artifact-v4"

(* ------------------------------------------------------------------ *)
(* Charge-free import scan *)

type tok = Word of string | Sym of char | Teof

let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'

let scan_imports src =
  let n = String.length src in
  let pos = ref 0 in
  let peek k = if !pos + k < n then src.[!pos + k] else '\000' in
  (* mirrors Lexer.skip_comment: only the opening delimiter nests *)
  let skip_comment op cl =
    let depth = ref 0 in
    let fin = ref false in
    while not !fin do
      if !pos >= n then fin := true
      else if src.[!pos] = op && peek 1 = '*' then begin
        incr depth;
        pos := !pos + 2
      end
      else if src.[!pos] = '*' && peek 1 = cl then begin
        decr depth;
        pos := !pos + 2;
        if !depth = 0 then fin := true
      end
      else incr pos
    done
  in
  let rec skip_blank () =
    if !pos < n then
      match src.[!pos] with
      | ' ' | '\t' | '\r' | '\n' ->
          incr pos;
          skip_blank ()
      | '(' when peek 1 = '*' ->
          skip_comment '(' ')';
          skip_blank ()
      | '<' when peek 1 = '*' ->
          skip_comment '<' '>';
          skip_blank ()
      | _ -> ()
  in
  let next () =
    skip_blank ();
    if !pos >= n then Teof
    else
      let c = src.[!pos] in
      if is_alpha c then begin
        let s = !pos in
        while !pos < n && (is_alpha src.[!pos] || is_digit src.[!pos] || src.[!pos] = '_') do
          incr pos
        done;
        Word (String.sub src s (!pos - s))
      end
      else if c = '"' || c = '\'' then begin
        (* strings have no escapes and must not span lines (Lexer) *)
        incr pos;
        while !pos < n && src.[!pos] <> c && src.[!pos] <> '\n' do
          incr pos
        done;
        if !pos < n then incr pos;
        Sym c
      end
      else begin
        incr pos;
        Sym c
      end
  in
  let is_ident s = Token.lookup_keyword s = None in
  (* first occurrence wins; the table keeps the dedup linear *)
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let add m =
    if not (Hashtbl.mem seen m) then begin
      Hashtbl.replace seen m ();
      acc := m :: !acc
    end
  in
  let fin = ref false in
  while not !fin do
    match next () with
    | Teof -> fin := true
    | Word ("CONST" | "TYPE" | "VAR" | "PROCEDURE" | "BEGIN") ->
        (* imports precede all declarations: done *)
        fin := true
    | Word "FROM" -> (
        match next () with
        | Word m when is_ident m ->
            add m;
            (* skip the imported identifier list *)
            let stop = ref false in
            while not !stop do
              match next () with Sym ';' | Teof -> stop := true | _ -> ()
            done
        | _ -> ())
    | Word "IMPORT" ->
        (* IMPORT A, B, C ';' *)
        let stop = ref false in
        while not !stop do
          match next () with
          | Word m when is_ident m -> add m
          | Sym ',' -> ()
          | _ -> stop := true
        done
    | _ -> ()
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Cache files

   A cache file is written whole and read back whole:

     tag | body length (8 bytes, little-endian) | MD5 of the body | body

   The tag names the file format, the file and [version]; the body is a
   sequence of fields, each its length as a base-128 varint (low group
   first) and that many bytes.  [read_file] hands back no field until
   the tag, the length and the digest all check out and the fields tile
   the body exactly, so a torn, truncated, bit-flipped or foreign file
   is rejected instead of decoded.  [write_file] writes a temporary file in
   the cache directory and renames it into place, so a crash during a
   save leaves the previous file intact.

   interfaces.bin: the type-uid floor (decimal), then per artifact its
   fingerprint, its interface name, the digest of the source it was
   analysed from, its identity and its marshaled bytes.
   modules.bin: the entry count (decimal), then per entry its key and
   its marshaled result, then per module name the position of its
   latest entry (decimal). *)

(* Bump when the layout of a cache file, or the type of anything
   marshaled into one (Artifact.t, Project's memo entries), changes.
   2: field bodies, decoded on first use.  3: each artifact's source
   digest and identity in the index. *)
let format = "mcc-cache-3"

let file_tag file = Printf.sprintf "%s %s %s\n" format file version

let write_file dir file fields =
  let b = Buffer.create (List.fold_left (fun n f -> n + 4 + String.length f) 0 fields) in
  List.iter
    (fun f ->
      let rec varint n =
        if n < 0x80 then Buffer.add_char b (Char.chr n)
        else begin
          Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
          varint (n lsr 7)
        end
      in
      varint (String.length f);
      Buffer.add_string b f)
    fields;
  let body = Buffer.contents b in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let len = Bytes.create 8 in
  Bytes.set_int64_le len 0 (Int64.of_int (String.length body));
  let tmp, oc = Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o644 ~temp_dir:dir file ".tmp" in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (file_tag file);
        output_bytes oc len;
        output_string oc (Digest.string body);
        output_string oc body;
        close_out oc)
  with
  | () -> Sys.rename tmp (Filename.concat dir file)
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

type contents = Missing | Rejected | Fields of string list

(* The fields from [ofs] to the end of [s], or [None] if they do not
   tile it exactly. *)
let fields s ofs =
  let n = String.length s in
  let rec varint pos shift acc =
    if pos >= n || shift > 56 then None
    else
      let c = Char.code s.[pos] in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c < 0x80 then Some (acc, pos + 1) else varint (pos + 1) (shift + 7) acc
  in
  let rec go pos acc =
    if pos = n then Some (List.rev acc)
    else
      match varint pos 0 0 with
      | Some (len, pos) when len >= 0 && len <= n - pos ->
          go (pos + len) (String.sub s pos len :: acc)
      | _ -> None
  in
  go ofs []

let read_file dir file =
  match In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all with
  | exception Sys_error _ -> Missing
  | s -> (
      let tag = file_tag file in
      let ofs = String.length tag + 8 + 16 in
      let n = String.length s - ofs in
      if
        n >= 0
        && String.starts_with ~prefix:tag s
        && String.get_int64_le s (String.length tag) = Int64.of_int n
        && String.equal (String.sub s (ofs - 16) 16) (Digest.substring s ofs n)
      then match fields s ofs with Some fs -> Fields fs | None -> Rejected
      else Rejected)

(* ------------------------------------------------------------------ *)
(* The interface store *)

(* A stored artifact.  [blob] is its marshaled form, made once when it
   is stored or kept from the file it was loaded from: its length is the
   artifact's charge against the size bound, so the bound models a
   persistent store of that many bytes, and [save] writes it.  [art] is
   the decoded artifact, [None] for a loaded one until its first use.
   [checked] records that the artifact passed verification — at its
   first probe, at [save], by arriving in a file whose header checked
   out, or by being captured in this process ([store_interface]
   ~checked).  A replaced artifact is a new entry, so it is verified
   again.  [source] and [id] are the index fields a re-key reads: a
   re-key installs a copy of the entry with a new [source] under a new
   fingerprint, sharing [blob]. *)
type entry = {
  name : string; (* the interface, as recorded beside the bytes *)
  source : string; (* digest of the source text it was analysed from *)
  id : string; (* the artifact's identity: its [a_digest] *)
  blob : string;
  mutable art : Artifact.t option;
  mutable checked : bool;
}

(* A source text's digest (hex) and direct imports. *)
type source = { digest : string; imports : string list }

type t = {
  mu : Mutex.t;
  dir : string option;
  cap_bytes : int option; (* store size bound; None = unbounded *)
  defs : (string, entry) Hashtbl.t; (* fingerprint -> artifact *)
  latest : (string, string) Hashtbl.t; (* name -> last stored fingerprint *)
  lru : (string, int) Hashtbl.t; (* fingerprint -> last-use tick *)
  sources : (string, source) Hashtbl.t; (* source text -> digest and imports *)
  mutable tick : int;
  mutable bytes : int; (* summed entry sizes *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int; (* entries dropped by the size bound *)
  mutable corrupt : int; (* artifacts or files rejected by verification *)
  mutable verify : bool; (* probe-time digest verification; see [disable_verification] *)
  mutable dirty : bool; (* stored, evicted or dropped since the last load or save *)
}

let iface_file = "interfaces.bin"

(* All of these must run under [t.mu] once [t] is shared. *)

let touch t fp =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.lru fp t.tick

(* Install [e] under [fp] as its interface's latest artifact. *)
let put t fp e =
  (match Hashtbl.find_opt t.defs fp with
  | Some old -> t.bytes <- t.bytes - String.length old.blob
  | None -> ());
  Hashtbl.replace t.defs fp e;
  Hashtbl.replace t.latest e.name fp;
  t.bytes <- t.bytes + String.length e.blob

let drop t fp =
  match Hashtbl.find_opt t.defs fp with
  | None -> ()
  | Some e ->
      (match Hashtbl.find_opt t.latest e.name with
      | Some latest_fp when latest_fp = fp -> Hashtbl.remove t.latest e.name
      | _ -> ());
      Hashtbl.remove t.defs fp;
      Hashtbl.remove t.lru fp;
      t.bytes <- t.bytes - String.length e.blob;
      t.dirty <- true

(* The artifact of [e], unmarshaled at its first use; [None] if its
   bytes do not decode to an artifact of the recorded name. *)
let decode e =
  match e.art with
  | Some _ as a -> a
  | None -> (
      match (Marshal.from_string e.blob 0 : Artifact.t) with
      | a when String.equal a.Artifact.a_name e.name ->
          e.art <- Some a;
          e.art
      | _ | (exception _) -> None)

(* Verify [e] once: its bytes must decode, the identity in the index
   must be the artifact's digest and that digest a payload
   recomputation. *)
let sound e =
  if not e.checked then
    e.checked <-
      (match decode e with
      | Some a -> String.equal e.id a.Artifact.a_digest && Artifact.verify a
      | None -> false);
  e.checked

(* Drop an entry whose bytes failed to decode or verify, counting it as
   corruption. *)
let drop_corrupt t fp =
  t.corrupt <- t.corrupt + 1;
  if Metrics.enabled () then Metrics.incr "mcc_cache_corrupt_total";
  drop t fp

(* Evict least-recently-used artifacts until the store fits the bound
   again, never evicting [keep] (the entry just stored): the bound is a
   budget, not an invariant an oversized single artifact could violate
   fatally.  Eviction is pure capacity management — the artifact is
   still valid, so it does not count as an invalidation. *)
let enforce_cap t ~keep =
  match t.cap_bytes with
  | None -> ()
  | Some cap ->
      let continue_ = ref (t.bytes > cap) in
      while !continue_ do
        let victim =
          Hashtbl.fold
            (fun fp tick acc ->
              if Some fp = keep then acc
              else
                match acc with
                | Some (_, best) when best <= tick -> acc
                | _ -> Some (fp, tick))
            t.lru None
        in
        match victim with
        | None -> continue_ := false
        | Some (fp, _) ->
            drop t fp;
            t.evictions <- t.evictions + 1;
            if Metrics.enabled () then Metrics.incr "mcc_cache_evict_total";
            continue_ := t.bytes > cap
      done

(* The hashing work for [len] source bytes, in virtual units. *)
let hash_units len =
  Costs.hash_block * ((len + Costs.hash_block_bytes - 1) / Costs.hash_block_bytes)

(* A rejected file leaves the store empty; it is counted, and the store
   is dirty so that [save] replaces the file. *)
let reject t =
  t.corrupt <- t.corrupt + 1;
  t.dirty <- true

(* Index a file's artifacts by fingerprint and name, decoding none of
   them; the header vouches for every byte, so they count as verified. *)
let load t dir =
  let rec entries acc = function
    | [] -> Some (List.rev acc)
    | fp :: name :: source :: id :: blob :: rest ->
        entries ((fp, { name; source; id; blob; art = None; checked = true }) :: acc) rest
    | _ -> None
  in
  match read_file dir iface_file with
  | Missing -> ()
  | Fields (floor :: defs) -> (
      match (int_of_string_opt floor, entries [] defs) with
      | Some floor, Some defs ->
          List.iter
            (fun (fp, e) ->
              put t fp e;
              touch t fp)
            defs;
          Mcc_sem.Types.bump_uid_floor floor
      | _ -> reject t)
  | Rejected | Fields [] -> reject t

let create ?dir ?cap_bytes () =
  let t =
    {
      mu = Mutex.create ();
      dir;
      cap_bytes;
      defs = Hashtbl.create 64;
      latest = Hashtbl.create 64;
      lru = Hashtbl.create 64;
      sources = Hashtbl.create 64;
      tick = 0;
      bytes = 0;
      hits = 0;
      misses = 0;
      invalidations = 0;
      evictions = 0;
      corrupt = 0;
      verify = true;
      dirty = false;
    }
  in
  Option.iter (load t) dir;
  (* a loaded store can exceed a (new or tightened) bound *)
  Mutex.lock t.mu;
  enforce_cap t ~keep:None;
  Mutex.unlock t.mu;
  t

(* Artifacts never probed are verified here, so only verified artifacts
   reach disk; one that fails is dropped and counted.  A clean store
   leaves its file as it is. *)
let save t =
  match t.dir with
  | None -> ()
  | Some dir ->
      let exists = Sys.file_exists (Filename.concat dir iface_file) in
      Mutex.lock t.mu;
      let bad = Hashtbl.fold (fun fp e acc -> if sound e then acc else fp :: acc) t.defs [] in
      List.iter
        (fun fp ->
          drop t fp;
          t.corrupt <- t.corrupt + 1)
        bad;
      let write = t.dirty || not exists in
      let defs = if write then Hashtbl.fold (fun fp e acc -> (fp, e) :: acc) t.defs [] else [] in
      t.dirty <- false;
      Mutex.unlock t.mu;
      if write then
        (* every uid a stored artifact holds was allocated in this
           process or lies under a floor it loaded *)
        let fields =
          string_of_int (Mcc_sem.Types.uid_floor ())
          :: List.concat_map
               (fun (fp, e) -> [ fp; e.name; e.source; e.id; e.blob ])
               (List.sort (fun (a, _) (b, _) -> compare a b) defs)
        in
        try write_file dir iface_file fields
        with e ->
          Mutex.lock t.mu;
          t.dirty <- true;
          Mutex.unlock t.mu;
          raise e

(* A source's digest and imports, computed at its first sight by this
   cache.  The text itself is the key: hashing it costs less than the
   digest a digest-keyed table would need for every lookup. *)
let source t src =
  Mutex.lock t.mu;
  let known = Hashtbl.find_opt t.sources src in
  Mutex.unlock t.mu;
  match known with
  | Some s -> s
  | None ->
      let s = { digest = Digest.to_hex (Digest.string src); imports = scan_imports src } in
      Mutex.lock t.mu;
      Hashtbl.replace t.sources src s;
      Mutex.unlock t.mu;
      s

let imports_of t src = (source t src).imports
let source_digest t src = (source t src).digest

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let digest parts = Digest.to_hex (Digest.string (String.concat "|" parts))

let condense ~node ~edges ~settled emit roots =
  (* per node entered, its low link; [max_int] once it is emitted *)
  let low = Hashtbl.create 4 and stack = ref [] in
  let rec enter w =
    if not (settled w || Hashtbl.mem low w) then
      let data = node w in
      (* with nothing unsettled below it, a node is a component of its own *)
      if List.for_all settled (edges data) then (Hashtbl.replace low w max_int; emit [ (w, data) ])
      else visit w data
  and visit v data =
    let i = Hashtbl.length low in
    Hashtbl.replace low v i;
    stack := (v, data) :: !stack;
    List.iter
      (fun w ->
        enter w;
        match Hashtbl.find_opt low w with
        | Some l when l < Hashtbl.find low v -> Hashtbl.replace low v l
        | _ -> ())
      (edges data);
    if Hashtbl.find low v = i then begin
      let rec pop acc =
        let ((w, _) as top) = List.hd !stack in
        stack := List.tl !stack;
        Hashtbl.replace low w max_int;
        if w = v then top :: acc else pop (top :: acc)
      in
      emit (List.sort (fun (a, _) (b, _) -> compare a b) (pop []))
    end
  in
  if not (List.for_all settled roots) then List.iter enter roots

(* [memo] is owned by one compilation (or one Project.compile call) and
   guarded by its owner; sources cannot change under it.  An import
   cycle digests its members' names and sources and its outside imports'
   fingerprints, and each member its name and that digest.  Returns the
   fingerprint and the uncharged hashing units this call performed. *)
let interface_fp t ~memo ~store name =
  match Hashtbl.find_opt memo name with
  | Some fp -> (fp, 0)
  | None ->
      let units = ref 0 in
      let hashed src =
        units := !units + hash_units (String.length src);
        source t src
      in
      let node m = Option.map hashed (Source_store.def_src store m) in
      let edges = function Some s -> s.imports | None -> [] in
      condense ~node ~edges ~settled:(Hashtbl.mem memo)
        (fun ms ->
          (* the members have no fingerprint yet: these are the outside imports' *)
          let subs = List.filter_map (Hashtbl.find_opt memo) (List.concat_map (fun (_, s) -> edges s) ms) in
          match ms with
          | [ (m, None) ] -> Hashtbl.replace memo m (digest [ version; "missing"; m ])
          | [ (m, Some s) ] -> Hashtbl.replace memo m (digest (version :: m :: s.digest :: subs))
          | _ ->
              let own = List.concat_map (fun (m, s) -> [ m; (Option.get s).digest ]) ms in
              let cycle = digest ((version :: "cycle" :: own) @ subs) in
              List.iter (fun (m, _) -> Hashtbl.replace memo m (digest [ version; m; cycle ])) ms)
        [ name ];
      (Hashtbl.find memo name, !units)

(* Probe-time digest verification can be disabled on one cache — only
   by the conformance harness, which plants a tampered artifact and
   proves the differential oracle catches what verification would have
   (test_check.ml's canary).  Production paths never touch this. *)
let disable_verification t = t.verify <- false

(* Corrupt the stored artifact for [name] in place: prepend a bogus
   replayed diagnostic without recomputing the payload digest.  With
   verification on the next probe evicts and rebuilds (self-healing);
   with it off the corruption installs and the compile's output
   diverges from the sequential reference. *)
let tamper t ~name =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.latest name with
  | None -> ()
  | Some fp -> (
      match Option.bind (Hashtbl.find_opt t.defs fp) decode with
      | None -> ()
      | Some a ->
          let bogus =
            {
              Diag.file = name ^ ".def";
              loc = Loc.none;
              msg = "tampered artifact (planted by the conformance canary)";
              sev = Diag.Warning;
            }
          in
          let art = { a with Artifact.a_diags = bogus :: a.Artifact.a_diags } in
          let e = Hashtbl.find t.defs fp in
          put t fp { e with blob = Marshal.to_string art []; art = Some art; checked = false };
          t.dirty <- true));
  Mutex.unlock t.mu

(* Probe, decoding the artifact at its first use and verifying it before
   handing it to the install path: the identity in the index must be
   the artifact's digest, and that digest must match a payload
   recomputation ([sound], once per stored value); an armed
   Fault plan can also declare the artifact corrupt, on any probe.  A
   payload that fails to decode or verify is counted as corruption *and*
   an invalidation, the entry is evicted, and the probe reports a miss —
   the caller rebuilds the interface from source and re-stores it,
   healing the cache. *)
let find_interface t ~fp =
  if Metrics.enabled () then Metrics.incr "mcc_cache_probe_total";
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.defs fp with
    | None -> None
    | Some e -> (
        let injected = Fault.armed () && Fault.fires Fault.Corrupt_artifact e.name in
        match decode e with
        | Some a when not (t.verify && (injected || not (sound e))) ->
            touch t fp;
            Some a
        | _ ->
            if injected && Evlog.enabled () then
              Evlog.emit (Evlog.Fault_inject { fault = "corrupt-artifact"; victim = e.name });
            t.invalidations <- t.invalidations + 1;
            drop_corrupt t fp;
            None)
  in
  (match r with None -> t.misses <- t.misses + 1 | Some _ -> t.hits <- t.hits + 1);
  Mutex.unlock t.mu;
  if Metrics.enabled () then
    Metrics.incr (match r with None -> "mcc_cache_miss_total" | Some _ -> "mcc_cache_hit_total");
  r

(* Make [e] its interface's latest entry, under [fp].  Under [t.mu]. *)
let install_entry t fp e =
  (match Hashtbl.find_opt t.latest e.name with
  | Some old_fp when old_fp <> fp ->
      (* the interface changed: the old key can never be hit again *)
      t.invalidations <- t.invalidations + 1;
      drop t old_fp
  | _ -> ());
  put t fp e;
  touch t fp;
  t.dirty <- true;
  enforce_cap t ~keep:(Some fp)

let store_interface ?(checked = false) t ~fp ~source (a : Artifact.t) =
  if Metrics.enabled () then Metrics.incr "mcc_cache_store_total";
  let e =
    {
      name = a.Artifact.a_name;
      source;
      id = a.Artifact.a_digest;
      blob = Marshal.to_string a [];
      art = Some a;
      checked;
    }
  in
  Mutex.lock t.mu;
  install_entry t fp e;
  Mutex.unlock t.mu

(* ------------------------------------------------------------------ *)
(* Index entries, for settling stale interfaces (Project's refresh
   prepass) and for copying artifacts between caches (the farm). *)

type stored = { s_fp : string; s_entry : entry }

let latest t name =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.latest name with
    | None -> None
    | Some fp -> Option.map (fun e -> { s_fp = fp; s_entry = e }) (Hashtbl.find_opt t.defs fp)
  in
  Mutex.unlock t.mu;
  r

let stored_fingerprint s = s.s_fp
let stored_source s = s.s_entry.source

let stored_bytes s = String.length s.s_entry.blob
let stored_identity s = s.s_entry.id

let stored_artifact t s =
  Mutex.lock t.mu;
  let r = decode s.s_entry in
  Mutex.unlock t.mu;
  r

(* The entry keeps its identity, bytes, decoded artifact and verdict;
   only the fingerprint it is found under and its source digest move. *)
let rekey t s ~fp ~source =
  Mutex.lock t.mu;
  install_entry t fp { s.s_entry with source };
  Mutex.unlock t.mu

(* The copy shares the bytes and the decoded artifact, not the mutable
   record: each cache guards its own entries. *)
let copy_interface s ~into =
  Mutex.lock into.mu;
  install_entry into s.s_fp { s.s_entry with art = s.s_entry.art };
  Mutex.unlock into.mu

(* The identity of the artifact stored under [fp], from the index. *)
let identity t ~fp =
  Mutex.lock t.mu;
  let r = Option.map (fun e -> e.id) (Hashtbl.find_opt t.defs fp) in
  Mutex.unlock t.mu;
  r

(* The artifact under [fp], decoded at its first use; one whose bytes
   fail to decode is dropped as corrupt.  Under [t.mu]. *)
let artifact t fp =
  match Hashtbl.find_opt t.defs fp with
  | None -> None
  | Some e ->
      let a = decode e in
      if Option.is_none a then drop_corrupt t fp;
      a

let interfaces t =
  Mutex.lock t.mu;
  let r = List.filter_map (artifact t) (Hashtbl.fold (fun fp _ acc -> fp :: acc) t.defs []) in
  Mutex.unlock t.mu;
  List.sort (fun (a : Artifact.t) b -> compare a.Artifact.a_name b.Artifact.a_name) r

(* Peek at the most recently stored artifact for an interface name —
   the fine-grained reuse check's view of "the interface as it is now".
   No counter traffic: this is bookkeeping, not a cache probe. *)
let latest_artifact t name =
  Mutex.lock t.mu;
  let r = Option.bind (Hashtbl.find_opt t.latest name) (artifact t) in
  Mutex.unlock t.mu;
  r

let counters t =
  Mutex.lock t.mu;
  let r = (t.hits, t.misses, t.invalidations) in
  Mutex.unlock t.mu;
  r

let eviction_count t =
  Mutex.lock t.mu;
  let r = t.evictions in
  Mutex.unlock t.mu;
  r

let total_bytes t =
  Mutex.lock t.mu;
  let r = t.bytes in
  Mutex.unlock t.mu;
  r

let corrupt_count t =
  Mutex.lock t.mu;
  let r = t.corrupt in
  Mutex.unlock t.mu;
  r

(* ------------------------------------------------------------------ *)
(* The module-result memo *)

type 'r memo = {
  mmu : Mutex.t;
  mcap : int option; (* entry-count bound; None = unbounded *)
  (* the tables are replaced only by [load_memo], sized for a loaded file *)
  mutable modules : (string, 'r option) Hashtbl.t;
      (* module key -> result; [None] until a loaded entry's first use,
         when its bytes are still only in [persisted] *)
  mutable latest_key : (string, string) Hashtbl.t; (* name -> last stored key *)
  mutable mcosts : (string, float) Hashtbl.t; (* key -> recompute cost *)
  mutable mpri : (string, float) Hashtbl.t; (* key -> GreedyDual priority *)
  mutable persisted : (string, string) Hashtbl.t; (* key -> payload bytes last loaded or saved *)
  mutable ml : float; (* GreedyDual inflation level L *)
  mutable mhits : int;
  mutable mmisses : int;
  mutable minvalidations : int;
  mutable mevictions : int;
  mutable mdirty : bool; (* stored, evicted or rejected since the last load or save *)
}

let memo ?cap () =
  {
    mmu = Mutex.create ();
    mcap = cap;
    modules = Hashtbl.create 16;
    latest_key = Hashtbl.create 16;
    mcosts = Hashtbl.create 16;
    mpri = Hashtbl.create 16;
    persisted = Hashtbl.create 16;
    ml = 0.0;
    mhits = 0;
    mmisses = 0;
    minvalidations = 0;
    mevictions = 0;
    mdirty = false;
  }

(* Both must run under [m.mmu]. *)

let memo_drop m key =
  Hashtbl.remove m.modules key;
  Hashtbl.remove m.mcosts key;
  Hashtbl.remove m.mpri key;
  Hashtbl.remove m.persisted key

(* Drop [key] and every name whose latest result it is. *)
let memo_forget m key =
  memo_drop m key;
  Hashtbl.iter
    (fun n k -> if k = key then Hashtbl.remove m.latest_key n)
    (Hashtbl.copy m.latest_key);
  m.mdirty <- true

(* The result under [key], unmarshaled from its kept bytes at its first
   use; a payload that no longer decodes is dropped, not fatal: the
   module just rebuilds cold.  The payload is untyped (see "Memo
   persistence" below). *)
let memo_value m key : 'r option =
  match Hashtbl.find_opt m.modules key with
  | None -> None
  | Some (Some _ as r) -> r
  | Some None -> (
      match Marshal.from_string (Hashtbl.find m.persisted key) 0 with
      | r ->
          Hashtbl.replace m.modules key (Some r);
          Some r
      | exception _ ->
          memo_forget m key;
          None)

(* GreedyDual eviction: every entry carries priority L + cost (cost =
   the simulated seconds a recompute would take, defaulting to 1.0), a
   hit refreshes the entry back to the current L + cost, and evicting
   raises L to the victim's priority — so cheap, long-idle entries go
   first and an expensive entry survives proportionally longer.  With
   uniform costs this degenerates to LRU.  Capacity management, not
   invalidation.  Ties break on the lexicographically smallest key so
   eviction order never depends on hash-table iteration order. *)
let memo_enforce_cap m ~keep =
  match m.mcap with
  | None -> ()
  | Some cap ->
      let continue_ = ref (Hashtbl.length m.modules > cap) in
      while !continue_ do
        let victim =
          Hashtbl.fold
            (fun key pri acc ->
              if Some key = keep then acc
              else
                match acc with
                | Some (bk, bp) when bp < pri || (bp = pri && bk < key) -> acc
                | _ -> Some (key, pri))
            m.mpri None
        in
        match victim with
        | None -> continue_ := false
        | Some (key, pri) ->
            m.ml <- Float.max m.ml pri;
            memo_forget m key;
            m.mevictions <- m.mevictions + 1;
            continue_ := Hashtbl.length m.modules > cap
      done

let module_inputs t ~memo store =
  let name = Source_store.main_name store in
  let main = Source_store.main_src store in
  let src = source t main in
  let units = ref (hash_units (String.length main)) in
  let fp m =
    let fp, u = interface_fp t ~memo ~store m in
    units := !units + u;
    fp
  in
  let fps = List.map fp (name :: src.imports) in
  (name, src, fps, !units)

(* A whole-module key: configuration tag (cached results embed simulated
   timings), module name, implementation source digest, and the
   interface fingerprints of the module's own definition and direct
   imports — which cover every transitive interface.  [store] is the
   module-focused store (its main source is the implementation). *)
let module_key t ~memo ~config_tag store =
  let name, src, fps, units = module_inputs t ~memo store in
  (digest (version :: config_tag :: name :: src.digest :: fps), units)

(* A whole-module key over artifact identities: configuration tag,
   module name, implementation source digest, and per interface of the
   module's own definition and direct imports the identity of its
   closure — a digest of its name, the identity of the artifact stored
   under its current fingerprint and the closures of its imports (just
   the identity when it imports nothing); an import cycle's members
   share one, over their identities in name order.  An interface with no
   artifact stands in by its fingerprint, and [ids] keeps only closures
   no later artifact of this build can change.  The "ids" tag keeps
   these keys apart from [module_key]'s.  Reads the index only. *)
let identity_key t ~memo ~ids ~config_tag store =
  (* the hashing charged is [module_key]'s: every fingerprint reached *)
  let name, src, _, units = module_inputs t ~memo store in
  let imports m = Option.fold ~none:[] ~some:(imports_of t) (Source_store.def_src store m) in
  (* closures resting on an interface without an artifact: taken out of
     [ids] again after this call, so an artifact stored later is seen *)
  let unsure = ref [] in
  let identity_of m =
    let fp = fst (interface_fp t ~memo ~store m) in
    match identity t ~fp with Some id -> (id, true) | None -> (fp, not (Source_store.has_def store m))
  in
  condense ~node:imports ~edges:Fun.id ~settled:(Hashtbl.mem ids)
    (fun ms ->
      let imported = List.concat_map snd ms in
      (* the members have no closure yet: these are the outside imports' *)
      let subs = List.filter_map (Hashtbl.find_opt ids) imported in
      let own = List.map (fun (m, _) -> identity_of m) ms in
      let k =
        match (ms, own, subs) with
        | [ _ ], [ (id, _) ], [] -> id (* the identity digests the name already *)
        | [ (m, _) ], [ (id, _) ], _ -> digest (m :: id :: subs)
        | _ -> digest (("cycle" :: List.map fst own) @ subs)
      in
      List.iter (fun (m, _) -> Hashtbl.replace ids m k) ms;
      if not (List.for_all snd own) || List.exists (fun i -> List.mem i !unsure) imported then
        unsure := List.map fst ms @ !unsure)
    (name :: src.imports);
  let parts = List.map (Hashtbl.find ids) (name :: src.imports) in
  let key = digest (version :: config_tag :: name :: src.digest :: "ids" :: parts) in
  List.iter (Hashtbl.remove ids) !unsure;
  (key, units)

let find_module m key =
  Mutex.lock m.mmu;
  let r = memo_value m key in
  (match r with
  | None -> m.mmisses <- m.mmisses + 1
  | Some _ ->
      m.mhits <- m.mhits + 1;
      (* GreedyDual hit: refresh the entry to the current level *)
      let cost = Option.value ~default:1.0 (Hashtbl.find_opt m.mcosts key) in
      Hashtbl.replace m.mpri key (m.ml +. cost));
  Mutex.unlock m.mmu;
  r

(* The module's most recently stored result regardless of key — the
   fine-grained check's previous-build baseline.  Counter-free. *)
let find_latest_module m ~name =
  Mutex.lock m.mmu;
  let r =
    match Hashtbl.find_opt m.latest_key name with
    | None -> None
    | Some key -> Option.map (fun v -> (key, v)) (memo_value m key)
  in
  Mutex.unlock m.mmu;
  r

let store_module ?(cost = 1.0) m ~name ~key result =
  Mutex.lock m.mmu;
  (* bytes kept for this very value (a result re-keyed unchanged) carry
     over to its new key; any other result stored under a persisted key
     replaces it, and the old bytes must not be written back *)
  let kept =
    match Hashtbl.find_opt m.latest_key name with
    | None -> None
    | Some old_key ->
        let kept =
          match Hashtbl.find_opt m.modules old_key with
          | Some (Some r) when r == result -> Hashtbl.find_opt m.persisted old_key
          | _ -> None
        in
        if old_key <> key then begin
          m.minvalidations <- m.minvalidations + 1;
          memo_drop m old_key
        end;
        kept
  in
  Hashtbl.replace m.modules key (Some result);
  (match kept with
  | Some payload -> Hashtbl.replace m.persisted key payload
  | None -> Hashtbl.remove m.persisted key);
  Hashtbl.replace m.latest_key name key;
  Hashtbl.replace m.mcosts key cost;
  Hashtbl.replace m.mpri key (m.ml +. cost);
  m.mdirty <- true;
  memo_enforce_cap m ~keep:(Some key);
  Mutex.unlock m.mmu

let memo_counters m =
  Mutex.lock m.mmu;
  let r = (m.mhits, m.mmisses, m.minvalidations) in
  Mutex.unlock m.mmu;
  r

let memo_eviction_count m =
  Mutex.lock m.mmu;
  let r = m.mevictions in
  Mutex.unlock m.mmu;
  r

(* Memo persistence piggybacks on the cache's directory, so a CLI
   `m2c build` reuses whole-module results across process invocations
   the same way it reuses interface artifacts.  The ['r] payload is
   marshaled untyped behind the checked header and unmarshaled at the
   entry's first use ([memo_value]): any change to the persisted result
   type must bump [format]. *)

let memo_file = "modules.bin"

let load_memo t (m : 'r memo) =
  match t.dir with
  | None -> ()
  | Some dir -> (
      let reject () =
        Mutex.lock t.mu;
        reject t;
        Mutex.unlock t.mu;
        m.mdirty <- true
      in
      let rec pairs acc = function
        | [] -> Some (List.rev acc)
        | a :: b :: rest -> pairs ((a, b) :: acc) rest
        | [ _ ] -> None
      in
      (* [n] (key, payload) pairs, then (name, position) pairs *)
      let parse = function
        | count :: rest -> (
            match (int_of_string_opt count, pairs [] rest) with
            | Some n, Some ps when n >= 0 && n <= List.length ps ->
                let modules = Array.of_list (List.filteri (fun i _ -> i < n) ps) in
                let latest =
                  List.filteri (fun i _ -> i >= n) ps
                  |> List.map (fun (name, i) ->
                         match int_of_string_opt i with
                         | Some i when i >= 0 && i < n -> Some (name, fst modules.(i))
                         | _ -> None)
                in
                if List.mem None latest then None
                else Some (Array.to_list modules, List.filter_map Fun.id latest)
            | _ -> None)
        | [] -> None
      in
      match read_file dir memo_file with
      | Missing -> ()
      | Rejected -> reject ()
      | Fields fs -> (
          match parse fs with
          | None -> reject ()
          | Some (modules, latest) ->
              Mutex.lock m.mmu;
              if Hashtbl.length m.modules = 0 then begin
                (* size the tables for the entries about to arrive *)
                let n = List.length modules in
                m.modules <- Hashtbl.create n;
                m.latest_key <- Hashtbl.create n;
                m.mcosts <- Hashtbl.create n;
                m.mpri <- Hashtbl.create n;
                m.persisted <- Hashtbl.create n
              end;
              List.iter
                (fun (k, payload) ->
                  Hashtbl.replace m.modules k None;
                  Hashtbl.replace m.persisted k payload;
                  (* costs are not persisted: loaded entries restart at
                     the uniform (LRU-like) cost *)
                  Hashtbl.replace m.mcosts k 1.0;
                  Hashtbl.replace m.mpri k (m.ml +. 1.0))
                modules;
              List.iter
                (fun (n, k) -> if Hashtbl.mem m.modules k then Hashtbl.replace m.latest_key n k)
                latest;
              memo_enforce_cap m ~keep:None;
              Mutex.unlock m.mmu))

let save_memo t (m : 'r memo) =
  match t.dir with
  | None -> ()
  | Some dir ->
      let exists = Sys.file_exists (Filename.concat dir memo_file) in
      Mutex.lock m.mmu;
      let write = m.mdirty || not exists in
      let modules =
        if write then
          Hashtbl.fold (fun k v acc -> (k, v, Hashtbl.find_opt m.persisted k) :: acc) m.modules []
        else []
      in
      let latest = if write then Hashtbl.fold (fun n k acc -> (n, k) :: acc) m.latest_key [] else [] in
      m.mdirty <- false;
      Mutex.unlock m.mmu;
      if write then begin
        (* an entry loaded or saved before keeps its payload bytes, so
           only results stored since then are marshaled.  Fresh entries
           are marshaled one by one so a result that contains an
           unmarshalable value (a custom block, an exception payload)
           costs only its own entry *)
        let fresh = ref [] in
        let modules =
          List.filter_map
            (fun (k, r, bytes) ->
              match (bytes, r) with
              | Some payload, _ -> Some (k, payload)
              | None, None -> None (* unreachable: an undecoded entry keeps its bytes *)
              | None, Some r -> (
                  match Marshal.to_string r [] with
                  | exception Invalid_argument _ -> None
                  | payload ->
                      fresh := (k, r, payload) :: !fresh;
                      Some (k, payload)))
            modules
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        let position = Hashtbl.create (List.length modules) in
        List.iteri (fun i (k, _) -> Hashtbl.replace position k (string_of_int i)) modules;
        let latest =
          List.filter_map
            (fun (n, k) -> Option.map (fun i -> (n, i)) (Hashtbl.find_opt position k))
            (List.sort compare latest)
        in
        let pairs l = List.concat_map (fun (a, b) -> [ a; b ]) l in
        let fields = (string_of_int (List.length modules) :: pairs modules) @ pairs latest in
        (try write_file dir memo_file fields
         with e ->
           Mutex.lock m.mmu;
           m.mdirty <- true;
           Mutex.unlock m.mmu;
           raise e);
        (* keep the bytes only while the entry is the one just marshaled *)
        Mutex.lock m.mmu;
        List.iter
          (fun (k, r, payload) ->
            match Hashtbl.find_opt m.modules k with
            | Some (Some r') when r' == r -> Hashtbl.replace m.persisted k payload
            | _ -> ())
          !fresh;
        Mutex.unlock m.mmu
      end
