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
     Beside each result an entry can keep a side record (Project's
     dependency record), stored and decoded on its own, so a key hit
     never decodes it.

   A build derives its inputs once ([graph]): one table maps each name
   of the program to its interface and implementation records (digest
   and imports), one pass over the interface graph fingerprints every
   interface, and the init order, staleness, module keys and each
   compile's probes read that table.  This module never calls Eff.work:
   hashing is returned as units for the caller to charge (to the first
   key or fingerprint of the build that reaches an interface, and to
   each compile whose closure holds it), and its import scan is a
   charge-free re-implementation of Stream.run_importer's FSM.

   Persistence: both stores can be saved under a cache directory, one
   file each, behind a header checked before anything is read (see
   "Cache files").  Each store is one table of entries holding the
   value, the bytes it was last loaded or saved as, and its eviction
   fields (read and updated only under a size bound).  Each value is
   marshaled, digested and verified once, and a store with nothing new
   is not rewritten.  Loading decodes nothing: the files carry each
   entry's index fields beside its bytes, and a value is unmarshaled at
   its first use. *)

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

let md5_hex s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Charge-free import scan *)

let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'

(* The scan works on [src] (length [n]) from a position and returns the
   position after what it skipped. *)

(* blanks and comments; as in Lexer.skip_comment, only the opening
   delimiter of a comment nests *)
let rec skip_blank src n pos =
  if pos >= n then pos
  else
    match String.unsafe_get src pos with
    | ' ' | '\t' | '\r' | '\n' -> skip_blank src n (pos + 1)
    | ('(' | '<') as op when pos + 1 < n && String.unsafe_get src (pos + 1) = '*' ->
        skip_blank src n (skip_comment src n op (if op = '(' then ')' else '>') (pos + 2) 1)
    | _ -> pos

and skip_comment src n op cl pos depth =
  if pos >= n then pos
  else
    let c = String.unsafe_get src pos in
    let star = pos + 1 < n && String.unsafe_get src (pos + 1) = '*' in
    if c = op && star then skip_comment src n op cl (pos + 2) (depth + 1)
    else if c = '*' && pos + 1 < n && String.unsafe_get src (pos + 1) = cl then
      if depth = 1 then pos + 2 else skip_comment src n op cl (pos + 2) (depth - 1)
    else skip_comment src n op cl (pos + 1) depth

let rec word_end src n pos =
  if pos < n
     &&
     let c = String.unsafe_get src pos in
     is_alpha c || is_digit c || c = '_'
  then word_end src n (pos + 1)
  else pos

(* a token that is not a word: a string (no escapes, and it must not
   span lines, as in Lexer) or one character *)
let skip_symbol src n pos =
  let c = String.unsafe_get src pos in
  if c = '"' || c = '\'' then begin
    let rec close p = if p < n && String.unsafe_get src p <> c && String.unsafe_get src p <> '\n' then close (p + 1) else p in
    let p = close (pos + 1) in
    if p < n then p + 1 else p
  end
  else pos + 1

(* The imports found so far, first occurrence first (reversed); a table
   keeps the dedup linear once the list is long. *)
type found = { mutable names : string list; mutable count : int; mutable seen : (string, unit) Hashtbl.t option }

let add found m =
  let dup =
    match found.seen with Some tbl -> Hashtbl.mem tbl m | None -> List.exists (String.equal m) found.names
  in
  if not dup then begin
    found.names <- m :: found.names;
    found.count <- found.count + 1;
    match found.seen with
    | Some tbl -> Hashtbl.replace tbl m ()
    | None when found.count > 16 ->
        let tbl = Hashtbl.create 64 in
        List.iter (fun m -> Hashtbl.replace tbl m ()) found.names;
        found.seen <- Some tbl
    | None -> ()
  end

(* Stream.run_importer's states.  A word is classified in place: a
   reserved word's shared kind, or an identifier (the only words copied
   out). *)
let rec scan_top src n found pos =
  let pos = skip_blank src n pos in
  if pos < n then
    if is_alpha (String.unsafe_get src pos) then
      let e = word_end src n pos in
      match Token.word src pos (e - pos) with
      | Token.Kw (Token.CONST | Token.TYPE | Token.VAR | Token.PROCEDURE | Token.BEGIN) ->
          (* imports precede all declarations: done *)
          ()
      | Token.Kw Token.FROM -> scan_from src n found e
      | Token.Kw Token.IMPORT -> scan_import src n found e
      | _ -> scan_top src n found e
    else scan_top src n found (skip_symbol src n pos)

(* FROM M IMPORT ... ';' *)
and scan_from src n found pos =
  let pos = skip_blank src n pos in
  if pos < n then
    if is_alpha (String.unsafe_get src pos) then
      let e = word_end src n pos in
      match Token.word src pos (e - pos) with
      | Token.Ident m ->
          add found m;
          scan_top src n found (skip_list src n e)
      | _ -> scan_top src n found e
    else scan_top src n found (skip_symbol src n pos)

(* the imported identifier list, through its ';' *)
and skip_list src n pos =
  let pos = skip_blank src n pos in
  if pos >= n then pos
  else
    let c = String.unsafe_get src pos in
    if is_alpha c then skip_list src n (word_end src n pos)
    else if c = ';' then pos + 1
    else skip_list src n (skip_symbol src n pos)

(* IMPORT A, B, C ';' *)
and scan_import src n found pos =
  let pos = skip_blank src n pos in
  if pos < n then
    let c = String.unsafe_get src pos in
    if is_alpha c then
      let e = word_end src n pos in
      match Token.word src pos (e - pos) with
      | Token.Ident m ->
          add found m;
          scan_import src n found e
      | _ -> scan_top src n found e
    else if c = ',' then scan_import src n found (pos + 1)
    else scan_top src n found (skip_symbol src n pos)

let scan_imports src =
  let found = { names = []; count = 0; seen = None } in
  scan_top src (String.length src) found 0;
  List.rev found.names

(* ------------------------------------------------------------------ *)
(* Cache files

   A cache file is written whole and read back whole:

     tag | body length (8 bytes, little-endian) | MD5 of the body | body

   The tag names the file format, the file and [version]; the body is a
   sequence of fields, each its length as a base-128 varint (low group
   first) and that many bytes.  [read_file] hands back no field until
   the tag, the length and the digest all check out and the fields tile
   the body exactly, so a torn, truncated, bit-flipped or foreign file
   is rejected instead of decoded.  [write_file] lays the body out once,
   in a buffer of its exact size, and writes a temporary file in the
   cache directory that it renames into place, so a crash during a save
   leaves the previous file intact.

   interfaces.bin: per artifact its fingerprint, its interface name, the digest of the source it was
   analysed from, its identity and its marshaled bytes.
   modules.bin: the entry count (decimal), then per entry its key, its
   module name, its marshaled result and its marshaled side record
   (empty when it has none). *)

(* Bump when the layout of a cache file, or the type of anything
   marshaled into one (Artifact.t, Project's memo entries), changes.
   2: field bodies, decoded on first use.  3: each artifact's source
   digest and identity in the index.  4: each memo entry names its
   module and keeps its side record in a field of its own.  5: type
   identities are declaration digests, and the interface file keeps no
   type-uid floor. *)
let format = "mcc-cache-5"

let file_tag file = Printf.sprintf "%s %s %s\n" format file version

(* Marshaled bytes: [len] bytes of [buf] from [off].  A value read from
   a file keeps its field in place, in the file's contents. *)
type blob = { buf : string; off : int; len : int }

let blob s = { buf = s; off = 0; len = String.length s }
let no_blob = blob ""

(* Marshal checks its header only against the whole of [buf]; a value
   whose header claims more bytes than its field holds would read on
   into the next fields, so it is refused here, like any bytes that do
   not decode. *)
let unmarshal b =
  if b.len < Marshal.header_size || Marshal.total_size (Bytes.unsafe_of_string b.buf) b.off > b.len then
    failwith "Build_cache.unmarshal: value overruns its field";
  Marshal.from_string b.buf b.off

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

let write_file dir file (fields : blob list) =
  let size = List.fold_left (fun n f -> n + varint_size f.len + f.len) 0 fields in
  let body = Bytes.create size in
  let pos = ref 0 in
  List.iter
    (fun f ->
      let rec varint n =
        if n < 0x80 then begin
          Bytes.unsafe_set body !pos (Char.unsafe_chr n);
          incr pos
        end
        else begin
          Bytes.unsafe_set body !pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
          incr pos;
          varint (n lsr 7)
        end
      in
      varint f.len;
      Bytes.blit_string f.buf f.off body !pos f.len;
      pos := !pos + f.len)
    fields;
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let len = Bytes.create 8 in
  Bytes.set_int64_le len 0 (Int64.of_int size);
  let tmp, oc = Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o644 ~temp_dir:dir file ".tmp" in
  match
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (file_tag file);
        output_bytes oc len;
        output_string oc (Digest.bytes body);
        output_bytes oc body;
        close_out oc)
  with
  | () -> Sys.rename tmp (Filename.concat dir file)
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* A file's fields: [field i] copies the [i]th out, [field_blob i]
   leaves it in place. *)
type fields = { count : int; field : int -> string; field_blob : int -> blob }
type contents = Missing | Rejected | Fields of fields

(* The fields from [ofs] to the end of [s], or [None] if they do not
   tile it exactly: one pass checks the tiling and counts them, a second
   records where each starts and how long it is. *)
let fields s ofs =
  let n = String.length s in
  (* the field after the one at [pos]: its length and where it starts,
     or -1 when the lengths do not tile the body *)
  let rec next pos shift len =
    if pos >= n || shift > 56 then -1
    else
      let c = Char.code (String.unsafe_get s pos) in
      let len = len lor ((c land 0x7f) lsl shift) in
      if c >= 0x80 then next (pos + 1) (shift + 7) len
      else if len < 0 || len > n - pos - 1 then -1
      else pos + 1
  and length pos shift len =
    let c = Char.code (String.unsafe_get s pos) in
    let len = len lor ((c land 0x7f) lsl shift) in
    if c >= 0x80 then length (pos + 1) (shift + 7) len else len
  in
  let rec count pos k =
    if pos = n then k
    else
      match next pos 0 0 with
      | -1 -> -1
      | start -> count (start + length pos 0 0) (k + 1)
  in
  match count ofs 0 with
  | -1 -> None
  | k ->
      let bounds = Array.make (2 * k) 0 in
      let pos = ref ofs in
      for i = 0 to k - 1 do
        let start = next !pos 0 0 and len = length !pos 0 0 in
        bounds.(2 * i) <- start;
        bounds.((2 * i) + 1) <- len;
        pos := start + len
      done;
      Some
        {
          count = k;
          field = (fun i -> String.sub s bounds.(2 * i) bounds.((2 * i) + 1));
          field_blob = (fun i -> { buf = s; off = bounds.(2 * i); len = bounds.((2 * i) + 1) });
        }

let read_file dir file =
  match
    In_channel.with_open_bin (Filename.concat dir file) (fun ic ->
        really_input_string ic (Int64.to_int (In_channel.length ic)))
  with
  | exception Sys_error _ -> Missing
  | exception End_of_file -> Rejected (* shrunk while read *)
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

(* A stored artifact, under fingerprint [fp].  [blob] is its marshaled
   form, made once when it is stored or kept from the file it was loaded
   from: its length is the artifact's charge against the size bound, so
   the bound models a persistent store of that many bytes, and [save]
   writes it.  [art] is the decoded artifact, [None] for a loaded one
   until its first use.  [checked] records that the artifact passed
   verification — at its first probe, at [save], by arriving in a file
   whose header checked out, or by being captured in this process
   ([store_interface] ~checked).  A replaced artifact is a new entry, so
   it is verified again.  [source] and [id] are the index fields a
   re-key reads: a re-key installs a copy of the entry with a new
   [source] under a new fingerprint, sharing [blob].  [tick] is its last
   use, kept only under a size bound. *)
type entry = {
  fp : string;
  name : string; (* the interface, as recorded beside the bytes *)
  source : string; (* digest of the source text it was analysed from *)
  id : string; (* the artifact's identity: its [a_digest] *)
  blob : blob;
  mutable art : Artifact.t option;
  mutable checked : bool;
  mutable tick : int;
}

(* A source text with its digest (hex) and direct imports. *)
type source = { text : string; digest : string; imports : string list }

type t = {
  mu : Mutex.t;
  dir : string option;
  cap_bytes : int option; (* store size bound; None = unbounded *)
  mutable defs : (string, entry) Hashtbl.t; (* fingerprint -> artifact *)
  mutable latest : (string, entry) Hashtbl.t; (* name -> its last stored artifact *)
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

let touch t (e : entry) =
  if t.cap_bytes <> None then begin
    t.tick <- t.tick + 1;
    e.tick <- t.tick
  end

(* Install [e] under its fingerprint as its interface's latest artifact. *)
let put t e =
  (match Hashtbl.find_opt t.defs e.fp with
  | Some old -> t.bytes <- t.bytes - old.blob.len
  | None -> ());
  Hashtbl.replace t.defs e.fp e;
  Hashtbl.replace t.latest e.name e;
  t.bytes <- t.bytes + e.blob.len

let drop t fp =
  match Hashtbl.find_opt t.defs fp with
  | None -> ()
  | Some e ->
      (match Hashtbl.find_opt t.latest e.name with
      | Some l when l == e -> Hashtbl.remove t.latest e.name
      | _ -> ());
      Hashtbl.remove t.defs fp;
      t.bytes <- t.bytes - e.blob.len;
      t.dirty <- true

(* The artifact of [e], unmarshaled at its first use; [None] if its
   bytes do not decode to an artifact of the recorded name. *)
let decode e =
  match e.art with
  | Some _ as a -> a
  | None -> (
      match (unmarshal e.blob : Artifact.t) with
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
            (fun fp (e : entry) acc ->
              if Some fp = keep then acc
              else match acc with Some (v : entry) when v.tick <= e.tick -> acc | _ -> Some e)
            t.defs None
        in
        match victim with
        | None -> continue_ := false
        | Some e ->
            drop t e.fp;
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

(* Index a file's artifacts by fingerprint and name in one sweep,
   decoding none of them; the header vouches for every byte, so they
   count as verified. *)
let load t dir =
  match read_file dir iface_file with
  | Missing -> ()
  | Fields fs when fs.count mod 5 = 0 ->
      let n = fs.count / 5 in
      t.defs <- Hashtbl.create n;
      t.latest <- Hashtbl.create n;
      for i = 0 to n - 1 do
        let f k = fs.field ((5 * i) + k) in
        let e =
          {
            fp = f 0;
            name = f 1;
            source = f 2;
            id = f 3;
            blob = fs.field_blob ((5 * i) + 4);
            art = None;
            checked = true;
            tick = 0;
          }
        in
        put t e;
        touch t e
      done
  | Fields _ | Rejected -> reject t

let create ?dir ?cap_bytes () =
  let t =
    {
      mu = Mutex.create ();
      dir;
      cap_bytes;
      defs = Hashtbl.create 64;
      latest = Hashtbl.create 64;
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
      let defs = if write then Hashtbl.fold (fun _ e acc -> e :: acc) t.defs [] else [] in
      t.dirty <- false;
      Mutex.unlock t.mu;
      if write then
        let fields =
          List.concat_map
            (fun e -> [ blob e.fp; blob e.name; blob e.source; blob e.id; e.blob ])
            (List.sort (fun a b -> String.compare a.fp b.fp) defs)
        in
        try write_file dir iface_file fields
        with e ->
          Mutex.lock t.mu;
          t.dirty <- true;
          Mutex.unlock t.mu;
          raise e

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let digest parts = md5_hex (String.concat "|" parts)

let condense ~node ~edges ~settled emit roots =
  (* per node entered, its low link; [max_int] once it is emitted *)
  let low = Hashtbl.create 16 and stack = ref [] in
  let rec enter w = if not (settled w || Hashtbl.mem low w) then visit w (node w)
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
      emit (List.sort (fun (a, _) (b, _) -> String.compare a b) (pop []))
    end
  in
  List.iter enter roots

let source_imports = function Some s -> s.imports | None -> []

(* The fingerprints of one component of the interface graph: its
   members with their sources ([None]: missing), given [outside], the
   fingerprint of each import the members do not include.  An import
   cycle digests its members' names and sources and its outside
   imports' fingerprints, and each member its name and that digest. *)
let component_fps ~outside ms =
  let subs = List.filter_map outside (List.concat_map (fun (_, s) -> source_imports s) ms) in
  match ms with
  | [ (m, None) ] -> [ (m, digest [ version; "missing"; m ]) ]
  | [ (m, Some s) ] -> [ (m, digest (version :: m :: s.digest :: subs)) ]
  | _ ->
      let own = List.concat_map (fun (m, s) -> [ m; (Option.get s).digest ]) ms in
      let cycle = digest ((version :: "cycle" :: own) @ subs) in
      List.map (fun (m, _) -> (m, digest [ version; m; cycle ])) ms

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
  | Some e -> (
      match decode e with
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
          put t { e with blob = blob (Marshal.to_string art []); art = Some art; checked = false };
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
            touch t e;
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

(* Make [e] its interface's latest entry.  Under [t.mu]. *)
let install_entry t e =
  (match Hashtbl.find_opt t.latest e.name with
  | Some old when old.fp <> e.fp ->
      (* the interface changed: the old key can never be hit again *)
      t.invalidations <- t.invalidations + 1;
      drop t old.fp
  | _ -> ());
  put t e;
  touch t e;
  t.dirty <- true;
  enforce_cap t ~keep:(Some e.fp)

let store_interface ?(checked = false) t ~fp ~source (a : Artifact.t) =
  if Metrics.enabled () then Metrics.incr "mcc_cache_store_total";
  let e =
    {
      fp;
      name = a.Artifact.a_name;
      source;
      id = a.Artifact.a_digest;
      blob = blob (Marshal.to_string a []);
      art = Some a;
      checked;
      tick = 0;
    }
  in
  Mutex.lock t.mu;
  install_entry t e;
  Mutex.unlock t.mu

(* ------------------------------------------------------------------ *)
(* Index entries, for settling stale interfaces (Project's refresh
   prepass) and for copying artifacts between caches (the farm). *)

type stored = entry

let latest t name =
  Mutex.lock t.mu;
  let r = Hashtbl.find_opt t.latest name in
  Mutex.unlock t.mu;
  r

let stored_fingerprint s = s.fp
let stored_source s = s.source
let stored_bytes s = s.blob.len
let stored_identity s = s.id

let stored_artifact t s =
  Mutex.lock t.mu;
  let r = decode s in
  Mutex.unlock t.mu;
  r

(* The entry keeps its identity, bytes, decoded artifact and verdict;
   only the fingerprint it is found under and its source digest move. *)
let rekey t s ~fp ~source =
  Mutex.lock t.mu;
  install_entry t { s with fp; source };
  Mutex.unlock t.mu

(* The copy shares the bytes and the decoded artifact, not the mutable
   record: each cache guards its own entries. *)
let copy_interface s ~into =
  Mutex.lock into.mu;
  install_entry into { s with art = s.art };
  Mutex.unlock into.mu

(* The identity of the artifact stored under [fp], from the index. *)
let identity t ~fp =
  Mutex.lock t.mu;
  let r = Option.map (fun e -> e.id) (Hashtbl.find_opt t.defs fp) in
  Mutex.unlock t.mu;
  r

(* The artifact of [e], decoded at its first use; one whose bytes fail
   to decode is dropped as corrupt.  Under [t.mu]. *)
let artifact t e =
  let a = decode e in
  if Option.is_none a then drop_corrupt t e.fp;
  a

let interfaces t =
  Mutex.lock t.mu;
  let r = List.filter_map (artifact t) (Hashtbl.fold (fun _ e acc -> e :: acc) t.defs []) in
  Mutex.unlock t.mu;
  List.sort (fun (a : Artifact.t) b -> String.compare a.Artifact.a_name b.Artifact.a_name) r

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
(* The inputs of one build

   One node per name of the program: its interface and implementation
   records, and what the build derives from them — the interface's
   fingerprint (every interface's, in one pass at [graph]) and its
   closure identity for module keys.  A graph belongs to one build and
   one thread, except that compiles read its records and fingerprints,
   fixed at [graph], from any domain. *)

type node = {
  name : string;
  def : source option;
  mutable impl : source option;
  mutable fp : string; (* "" until fingerprinted *)
  mutable closure : string; (* "" until computed *)
  mutable unsure : bool; (* the closure rests on an interface without an artifact *)
}

type graph = {
  cache : t;
  nodes : (string, node) Hashtbl.t;
  def_names : string list;
  charged : (string, unit) Hashtbl.t; (* interfaces whose hashing this build charged *)
}

let new_node name def impl = { name; def; impl; fp = ""; closure = ""; unsure = false }

(* The node of [name]; one that is neither an interface nor an
   implementation of the program is missing. *)
let node g name =
  match Hashtbl.find_opt g.nodes name with
  | Some n -> n
  | None ->
      let n = new_node name None None in
      Hashtbl.replace g.nodes name n;
      n

let node_imports n = source_imports n.def

let graph t store =
  let nodes = Hashtbl.create (2 * Source_store.n_names store) and defs = ref [] in
  let source text = Some { text; digest = md5_hex text; imports = scan_imports text } in
  Source_store.iter_defs store (fun name text ->
      defs := name :: !defs;
      Hashtbl.replace nodes name (new_node name (source text) None));
  Source_store.iter_impls store (fun name text ->
      let impl = source text in
      match Hashtbl.find_opt nodes name with
      | Some n -> n.impl <- impl
      | None -> Hashtbl.replace nodes name (new_node name None impl));
  let g = { cache = t; nodes; def_names = !defs; charged = Hashtbl.create 64 } in
  let outside m =
    let fp = (node g m).fp in
    if fp = "" then None else Some fp
  in
  condense ~node:(node g) ~edges:node_imports
    ~settled:(fun m -> (node g m).fp <> "")
    (fun ms ->
      List.iter2
        (fun (_, n) (_, fp) -> n.fp <- fp)
        ms
        (component_fps ~outside (List.map (fun (m, n) -> (m, n.def)) ms)))
    g.def_names;
  g

(* No node is shared: closure identities are read against the graph's
   own cache. *)
let graph_over t g =
  let nodes = Hashtbl.copy g.nodes in
  Hashtbl.filter_map_inplace (fun _ n -> Some { n with closure = ""; unsure = false }) nodes;
  { cache = t; nodes; def_names = g.def_names; charged = Hashtbl.create 64 }

let graph_cache g = g.cache
let graph_defs g = g.def_names
let impl_imports g name = Option.map (fun s -> s.imports) (node g name).impl

(* The record of interface [name]; inserts no node. *)
let def_record g name = Option.bind (Hashtbl.find_opt g.nodes name) (fun n -> n.def)

let def_imports g name = source_imports (def_record g name)
let interface_digest g name = Option.map (fun s -> s.digest) (def_record g name)

let def_fingerprint g name text =
  match Hashtbl.find_opt g.nodes name with
  | Some { def = Some s; fp; _ } when s.text == text || String.equal s.text text -> Some fp
  | _ -> None

(* The hashing of the interfaces reached from [name] along their
   imports that [seen] does not hold yet; they join it.  Reads what is
   fixed when the graph is built. *)
let closure_units g ~seen name =
  let rec walk units m =
    match def_record g m with
    | Some s when not (Hashtbl.mem seen m) ->
        Hashtbl.replace seen m ();
        List.fold_left walk (units + hash_units (String.length s.text)) s.imports
    | _ -> units
  in
  walk 0 name

let impl_digest g name =
  match (node g name).impl with
  | Some s -> s.digest
  | None -> invalid_arg ("Build_cache.impl_digest: no implementation for " ^ name)

let fp_of n =
  if n.fp = "" then n.fp <- digest [ version; "missing"; n.name ];
  n.fp

let fingerprint g name =
  let n = node g name in
  (fp_of n, closure_units g ~seen:g.charged name)

(* On a [memo] miss, one graph of [store] fills [memo] with every
   interface's fingerprint; the units are the hashing of all of them. *)
let interface_fp t ~memo ~store name =
  match Hashtbl.find_opt memo name with
  | Some fp -> (fp, 0)
  | None ->
      let g = graph t store and seen = Hashtbl.create 64 in
      let units = List.fold_left (fun u m -> u + closure_units g ~seen m) 0 g.def_names in
      List.iter (fun m -> Hashtbl.replace memo m (fp_of (node g m))) (name :: g.def_names);
      (Hashtbl.find memo name, units)

(* A module's implementation record, the nodes of its own definition
   and direct imports, and the hashing its key charges: its own text
   and every interface those reach, as far as not charged yet. *)
let module_inputs g name =
  let n = node g name in
  match n.impl with
  | None -> invalid_arg ("Build_cache: no implementation for " ^ name)
  | Some impl ->
      let roots = n :: List.map (node g) impl.imports in
      let charge u r = u + closure_units g ~seen:g.charged r.name in
      let units = List.fold_left charge (hash_units (String.length impl.text)) roots in
      (impl, roots, units)

(* A whole-module key: configuration tag (cached results embed simulated
   timings), module name, implementation source digest, and the
   interface fingerprints of the module's own definition and direct
   imports — which cover every transitive interface. *)
let module_key g ~config_tag name =
  let impl, roots, units = module_inputs g name in
  (digest (version :: config_tag :: name :: impl.digest :: List.map fp_of roots), units)

(* A whole-module key over artifact identities: configuration tag,
   module name, implementation source digest, and per interface of the
   module's own definition and direct imports the identity of its
   closure — a digest of its name, the identity of the artifact stored
   under its current fingerprint and the closures of its imports (just
   the identity when it imports nothing); an import cycle's members
   share one, over their identities in name order.  An interface with no
   artifact stands in by its fingerprint, and a closure resting on one
   is recomputed at the next key, so an artifact stored later is seen.
   The "ids" tag keeps these keys apart from [module_key]'s.  Reads the
   index only. *)
let identity_key g ~config_tag name =
  let impl, roots, units = module_inputs g name in
  let unsure = ref [] in
  let identity_of (_, n) =
    let fp = fp_of n in
    match identity g.cache ~fp with Some id -> (id, true) | None -> (fp, n.def = None)
  in
  if List.exists (fun r -> r.closure = "") roots then
    condense ~node:(node g) ~edges:node_imports
      ~settled:(fun m -> (node g m).closure <> "")
      (fun ms ->
        let imported = List.concat_map (fun (_, n) -> List.map (node g) (node_imports n)) ms in
        (* the members have no closure yet: these are the outside imports' *)
        let subs = List.filter_map (fun i -> if i.closure = "" then None else Some i.closure) imported in
        let own = List.map identity_of ms in
        let k =
          match (ms, own, subs) with
          | [ _ ], [ (id, _) ], [] -> id (* the identity digests the name already *)
          | [ (m, _) ], [ (id, _) ], _ -> digest (m :: id :: subs)
          | _ -> digest (("cycle" :: List.map fst own) @ subs)
        in
        let sure = List.for_all snd own && not (List.exists (fun i -> i.unsure) imported) in
        List.iter
          (fun (_, n) ->
            n.closure <- k;
            if not sure then begin
              n.unsure <- true;
              unsure := n :: !unsure
            end)
          ms)
      (List.map (fun r -> r.name) roots);
  let parts = List.map (fun r -> r.closure) roots in
  List.iter
    (fun n ->
      n.closure <- "";
      n.unsure <- false)
    !unsure;
  (digest (version :: config_tag :: name :: impl.digest :: "ids" :: parts), units)

(* ------------------------------------------------------------------ *)
(* The module-result memo *)

(* One memoized result under [key], the latest of module [name].
   [value] is [None] until a loaded entry's first use, when its bytes
   are still only in [payload]; [payload] is what it was last loaded or
   saved as (empty when there is none yet), and [side], [side_payload]
   the same for the side record, decoded only when asked for.  [cost] and [pri]
   are its GreedyDual fields, updated only under an entry bound. *)
type ('r, 'd) slot = {
  mutable key : string;
  name : string;
  mutable value : 'r option;
  mutable payload : blob;
  mutable side : 'd option;
  mutable side_payload : blob;
  mutable cost : float; (* recompute cost *)
  mutable pri : float; (* GreedyDual priority *)
}

type ('r, 'd) memo = {
  mmu : Mutex.t;
  mcap : int option; (* entry-count bound; None = unbounded *)
  (* the tables are replaced only by [load_memo], sized for a loaded file *)
  mutable entries : (string, ('r, 'd) slot) Hashtbl.t; (* module key -> entry *)
  mutable names : (string, ('r, 'd) slot) Hashtbl.t; (* module name -> its latest entry *)
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
    entries = Hashtbl.create 16;
    names = Hashtbl.create 16;
    ml = 0.0;
    mhits = 0;
    mmisses = 0;
    minvalidations = 0;
    mevictions = 0;
    mdirty = false;
  }

(* All of these must run under [m.mmu]. *)

(* Make [s] the entry under its key and its module's latest. *)
let holds tbl k s = match Hashtbl.find_opt tbl k with Some x -> x == s | None -> false

let memo_put m s =
  (match Hashtbl.find_opt m.entries s.key with
  | Some old when old.name <> s.name && holds m.names old.name old ->
      Hashtbl.remove m.names old.name
  | _ -> ());
  Hashtbl.replace m.entries s.key s;
  Hashtbl.replace m.names s.name s

let memo_forget m s =
  if holds m.entries s.key s then Hashtbl.remove m.entries s.key;
  if holds m.names s.name s then Hashtbl.remove m.names s.name;
  m.mdirty <- true

(* The result of [s], unmarshaled from its kept bytes at its first use;
   a payload that no longer decodes is dropped, not fatal: the module
   just rebuilds cold.  The payload is untyped (see "Memo persistence"
   below). *)
let memo_value m s : 'r option =
  match s.value with
  | Some _ as r -> r
  | None -> (
      match unmarshal s.payload with
      | r ->
          s.value <- Some r;
          s.value
      | exception _ ->
          memo_forget m s;
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
      let continue_ = ref (Hashtbl.length m.entries > cap) in
      while !continue_ do
        let victim =
          Hashtbl.fold
            (fun key s acc ->
              if Some key = keep then acc
              else
                match acc with
                | Some b when b.pri < s.pri || (b.pri = s.pri && b.key < key) -> acc
                | _ -> Some s)
            m.entries None
        in
        match victim with
        | None -> continue_ := false
        | Some s ->
            m.ml <- Float.max m.ml s.pri;
            memo_forget m s;
            m.mevictions <- m.mevictions + 1;
            continue_ := Hashtbl.length m.entries > cap
      done

let find_module m key =
  Mutex.lock m.mmu;
  let r = Option.bind (Hashtbl.find_opt m.entries key) (fun s ->
      let r = memo_value m s in
      (* GreedyDual hit: refresh the entry to the current level *)
      if r <> None && m.mcap <> None then s.pri <- m.ml +. s.cost;
      r)
  in
  (match r with None -> m.mmisses <- m.mmisses + 1 | Some _ -> m.mhits <- m.mhits + 1);
  Mutex.unlock m.mmu;
  r

(* The module's most recently stored result regardless of key — the
   fine-grained check's previous-build baseline.  Counter-free. *)
let find_latest_module m ~name =
  Mutex.lock m.mmu;
  let r =
    Option.bind (Hashtbl.find_opt m.names name) (fun s ->
        Option.map (fun v -> (s.key, v)) (memo_value m s))
  in
  Mutex.unlock m.mmu;
  r

(* Module [name]'s latest result looked up by name, so that a module
   with none costs no key: [key] runs only when there is one.  Counts a
   hit or a miss as [find_module] does. *)
let lookup_module m ~name ~key =
  match find_latest_module m ~name with
  | None ->
      Mutex.lock m.mmu;
      m.mmisses <- m.mmisses + 1;
      Mutex.unlock m.mmu;
      None
  | Some (prev_key, v) ->
      let key = key () in
      Mutex.lock m.mmu;
      (if String.equal key prev_key then begin
         m.mhits <- m.mhits + 1;
         if m.mcap <> None then
           Option.iter (fun s -> s.pri <- m.ml +. s.cost) (Hashtbl.find_opt m.entries key)
       end
       else m.mmisses <- m.mmisses + 1);
      Mutex.unlock m.mmu;
      Some (key, prev_key, v)

let latest_side m ~name =
  Mutex.lock m.mmu;
  let r =
    match Hashtbl.find_opt m.names name with
    | None -> None
    | Some s -> (
        match s.side with
        | Some _ as d -> d
        | None when s.side_payload.len = 0 -> None
        | None -> (
            match unmarshal s.side_payload with
            | d ->
                s.side <- Some d;
                s.side
            | exception _ ->
                memo_forget m s;
                None))
  in
  Mutex.unlock m.mmu;
  r

let store_module ?(cost = 1.0) ?side m ~name ~key result =
  Mutex.lock m.mmu;
  (match Hashtbl.find_opt m.names name with
  | Some old when old.key <> key ->
      m.minvalidations <- m.minvalidations + 1;
      memo_forget m old
  | _ -> ());
  memo_put m
    { key; name; value = Some result; payload = no_blob; side; side_payload = no_blob; cost; pri = m.ml +. cost };
  m.mdirty <- true;
  memo_enforce_cap m ~keep:(Some key);
  Mutex.unlock m.mmu

(* The entry keeps its result, side record and their bytes; only the
   key it is found under moves. *)
let rekey_module m ~name ~key =
  Mutex.lock m.mmu;
  (match Hashtbl.find_opt m.names name with
  | Some s when s.key <> key ->
      m.minvalidations <- m.minvalidations + 1;
      Hashtbl.remove m.entries s.key;
      s.key <- key;
      s.pri <- m.ml +. s.cost;
      memo_put m s;
      m.mdirty <- true;
      memo_enforce_cap m ~keep:(Some key)
  | _ -> ());
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
   the same way it reuses interface artifacts.  The ['r] and ['d]
   payloads are marshaled untyped behind the checked header and
   unmarshaled at the entry's first use ([memo_value], [latest_side]):
   any change to a persisted type must bump [format]. *)

let memo_file = "modules.bin"

let load_memo t (m : ('r, 'd) memo) =
  match t.dir with
  | None -> ()
  | Some dir -> (
      let reject () =
        Mutex.lock t.mu;
        reject t;
        Mutex.unlock t.mu;
        m.mdirty <- true
      in
      match read_file dir memo_file with
      | Missing -> ()
      | Fields fs when fs.count mod 4 = 1 && int_of_string_opt (fs.field 0) = Some (fs.count / 4) ->
          let n = fs.count / 4 in
          Mutex.lock m.mmu;
          if Hashtbl.length m.entries = 0 then begin
            (* size the tables for the entries about to arrive *)
            m.entries <- Hashtbl.create n;
            m.names <- Hashtbl.create n
          end;
          for i = 0 to n - 1 do
            let f k = (4 * i) + 1 + k in
            (* costs are not persisted: loaded entries restart at the
               uniform (LRU-like) cost *)
            memo_put m
              {
                key = fs.field (f 0);
                name = fs.field (f 1);
                value = None;
                payload = fs.field_blob (f 2);
                side = None;
                side_payload = fs.field_blob (f 3);
                cost = 1.0;
                pri = m.ml +. 1.0;
              }
          done;
          memo_enforce_cap m ~keep:None;
          Mutex.unlock m.mmu
      | Fields _ | Rejected -> reject ())

let save_memo t (m : ('r, 'd) memo) =
  match t.dir with
  | None -> ()
  | Some dir ->
      let exists = Sys.file_exists (Filename.concat dir memo_file) in
      Mutex.lock m.mmu;
      let write = m.mdirty || not exists in
      let slots = if write then Hashtbl.fold (fun _ s acc -> s :: acc) m.entries [] else [] in
      m.mdirty <- false;
      Mutex.unlock m.mmu;
      if write then begin
        (* an entry loaded or saved before keeps its payload bytes, so
           only results stored since then are marshaled.  Fresh entries
           are marshaled one by one so a result that contains an
           unmarshalable value (a custom block, an exception payload)
           costs only its own entry *)
        let marshal kept v =
          if kept.len > 0 then Some kept
          else
            match v with
            | None -> Some no_blob
            | Some v -> ( try Some (blob (Marshal.to_string v [])) with Invalid_argument _ -> None)
        in
        let written =
          List.filter_map
            (fun s ->
              match (marshal s.payload s.value, marshal s.side_payload s.side) with
              | Some b, Some d when b.len > 0 -> Some (s, b, d)
              | _ -> None (* unmarshalable; an undecoded entry keeps its bytes *))
            slots
          |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a.key b.key)
        in
        let fields =
          blob (string_of_int (List.length written))
          :: List.concat_map (fun (s, b, d) -> [ blob s.key; blob s.name; b; d ]) written
        in
        (try write_file dir memo_file fields
         with e ->
           Mutex.lock m.mmu;
           m.mdirty <- true;
           Mutex.unlock m.mmu;
           raise e);
        (* an entry's result never changes, so its bytes stay valid *)
        Mutex.lock m.mmu;
        List.iter
          (fun (s, b, d) ->
            s.payload <- b;
            s.side_payload <- d)
          written;
        Mutex.unlock m.mmu
      end
