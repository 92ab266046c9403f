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
   - the *module memo* maps whole-module keys to per-module compilation
     results (Project's incremental layer).  A module key additionally
     digests the implementation source and a configuration tag, because
     a cached Driver.result embeds simulated timings that do depend on
     the configuration.

   Fingerprinting must run inside engine tasks without yielding (the
   caller holds a memo lock, and a cooperative-engine yield under a lock
   would block every other task on it), so this module never calls
   Eff.work: the hashing work is returned as units for the caller to
   charge explicitly.  For the same reason the import scan used here is
   a charge-free re-implementation of Stream.run_importer's FSM on a
   zero-cost word scanner, memoized by source digest.

   Persistence: the interface store (only) can be saved under a cache
   directory as a single Marshal blob — one blob preserves value
   sharing between artifacts, and the loader bumps the type-uid counter
   past every unmarshalled uid so fresh types cannot collide. *)

open Mcc_m2
open Mcc_sched
module Evlog = Mcc_obs.Evlog
module Metrics = Mcc_obs.Metrics

(* v3: Driver.result (persisted inside module-memo entries) grew the
   cache-eviction counter.  v2 added per-declaration slice digests and
   the stable install/shape digests fine-grained invalidation compares. *)
let version = "mcc-artifact-v3"

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
(* The interface store *)

type t = {
  mu : Mutex.t;
  dir : string option;
  cap_bytes : int option; (* store size bound; None = unbounded *)
  defs : (string, Artifact.t) Hashtbl.t; (* fingerprint -> artifact *)
  latest : (string, string) Hashtbl.t; (* name -> last stored fingerprint *)
  sizes : (string, int) Hashtbl.t; (* fingerprint -> marshaled bytes *)
  lru : (string, int) Hashtbl.t; (* fingerprint -> last-use tick *)
  imports_memo : (string, string list) Hashtbl.t; (* source digest -> imports *)
  mutable tick : int;
  mutable bytes : int; (* sum of [sizes] *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int; (* entries dropped by the size bound *)
  mutable corrupt : int; (* artifacts dropped by digest verification *)
  mutable verify : bool; (* probe-time digest verification; see [disable_verification] *)
}

(* An artifact's charge against the size bound is its marshaled size —
   the same bytes [save] would write for it, so the bound models a
   persistent store of that many bytes. *)
let artifact_size (a : Artifact.t) = String.length (Marshal.to_string a [])

(* All four must run under [t.mu]. *)

let touch t fp =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.lru fp t.tick

let forget_sizes t fp =
  (match Hashtbl.find_opt t.sizes fp with
  | Some sz -> t.bytes <- t.bytes - sz
  | None -> ());
  Hashtbl.remove t.sizes fp;
  Hashtbl.remove t.lru fp

let record_size t fp a =
  forget_sizes t fp;
  let sz = artifact_size a in
  Hashtbl.replace t.sizes fp sz;
  t.bytes <- t.bytes + sz;
  touch t fp

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
            (match Hashtbl.find_opt t.defs fp with
            | Some a -> (
                match Hashtbl.find_opt t.latest a.Artifact.a_name with
                | Some latest_fp when latest_fp = fp -> Hashtbl.remove t.latest a.Artifact.a_name
                | _ -> ())
            | None -> ());
            Hashtbl.remove t.defs fp;
            forget_sizes t fp;
            t.evictions <- t.evictions + 1;
            if Metrics.enabled () then Metrics.incr "mcc_cache_evict_total";
            continue_ := t.bytes > cap
      done

let cache_file dir = Filename.concat dir "interfaces.bin"

(* The hashing work for [len] source bytes, in virtual units. *)
let hash_units len =
  Costs.hash_block * ((len + Costs.hash_block_bytes - 1) / Costs.hash_block_bytes)

let load t dir =
  match open_in_bin (cache_file dir) with
  | exception Sys_error _ -> ()
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match (Marshal.from_channel ic : string * (string * Artifact.t) list) with
          | exception _ -> () (* unreadable or truncated: start empty *)
          | v, defs when v = version ->
              let floor = ref 0 in
              List.iter
                (fun (fp, a) ->
                  (* drop artifacts whose stored digest no longer matches
                     their payload (on-disk bit-rot / tampering) *)
                  if not (Artifact.verify a) then t.corrupt <- t.corrupt + 1
                  else begin
                    Hashtbl.replace t.defs fp a;
                    Hashtbl.replace t.latest a.Artifact.a_name fp;
                    record_size t fp a;
                    floor := max !floor (Artifact.max_uid a)
                  end)
                defs;
              Mcc_sem.Types.bump_uid_floor !floor
          | _ -> () (* format version changed: start empty *))

let create ?dir ?cap_bytes () =
  let t =
    {
      mu = Mutex.create ();
      dir;
      cap_bytes;
      defs = Hashtbl.create 64;
      latest = Hashtbl.create 64;
      sizes = Hashtbl.create 64;
      lru = Hashtbl.create 64;
      imports_memo = Hashtbl.create 64;
      tick = 0;
      bytes = 0;
      hits = 0;
      misses = 0;
      invalidations = 0;
      evictions = 0;
      corrupt = 0;
      verify = true;
    }
  in
  Option.iter (load t) dir;
  (* a loaded store can exceed a (new or tightened) bound *)
  Mutex.lock t.mu;
  enforce_cap t ~keep:None;
  Mutex.unlock t.mu;
  t

let save t =
  match t.dir with
  | None -> ()
  | Some dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      Mutex.lock t.mu;
      let defs = Hashtbl.fold (fun fp a acc -> (fp, a) :: acc) t.defs [] in
      Mutex.unlock t.mu;
      let defs = List.sort (fun (a, _) (b, _) -> compare a b) defs in
      let oc = open_out_bin (cache_file dir) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Marshal.to_channel oc (version, defs) [])

let imports_of t src =
  let key = Digest.to_hex (Digest.string src) in
  Mutex.lock t.mu;
  let memo = Hashtbl.find_opt t.imports_memo key in
  Mutex.unlock t.mu;
  match memo with
  | Some imports -> imports
  | None ->
      let imports = scan_imports src in
      Mutex.lock t.mu;
      Hashtbl.replace t.imports_memo key imports;
      Mutex.unlock t.mu;
      imports

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

(* [memo] is owned by one compilation (or one Project.compile call) and
   guarded by its owner; sources cannot change under it.  A module being
   fingerprinted holds a provisional cycle marker so circular imports
   terminate (such programs deadlock compilation and never produce
   artifacts anyway).  Returns the fingerprint and the uncharged hashing
   units this call performed. *)
let interface_fp t ~memo ~store name =
  let units = ref 0 in
  let rec go name =
    match Hashtbl.find_opt memo name with
    | Some fp -> fp
    | None ->
        Hashtbl.replace memo name ("cycle:" ^ name);
        let fp =
          match Source_store.def_src store name with
          | None -> Digest.to_hex (Digest.string (version ^ "|missing|" ^ name))
          | Some src ->
              units := !units + hash_units (String.length src);
              let subs = List.map go (imports_of t src) in
              Digest.to_hex
                (Digest.string
                   (String.concat "|"
                      (version :: name :: Digest.to_hex (Digest.string src) :: subs)))
        in
        Hashtbl.replace memo name fp;
        fp
  in
  let fp = go name in
  (fp, !units)

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
      match Hashtbl.find_opt t.defs fp with
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
          Hashtbl.replace t.defs fp { a with Artifact.a_diags = bogus :: a.Artifact.a_diags }));
  Mutex.unlock t.mu

(* Probe, verifying before handing the artifact to the install path: the
   store key must match the artifact's recorded fingerprint, and the
   stored digest must match a payload recomputation (an armed Fault plan
   can also declare the artifact corrupt).  A verification failure is
   counted as corruption *and* an invalidation, the entry is evicted,
   and the probe reports a miss — the caller rebuilds the interface from
   source and re-stores it, healing the cache. *)
let find_interface t ~fp =
  if Metrics.enabled () then Metrics.incr "mcc_cache_probe_total";
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.defs fp with
    | None -> None
    | Some a ->
        let injected = Fault.armed () && Fault.corrupt_artifact ~name:a.Artifact.a_name in
        if
          t.verify
          && (injected || fp <> a.Artifact.a_fingerprint || not (Artifact.verify a))
        then begin
          if injected && Evlog.enabled () then
            Evlog.emit
              (Evlog.Fault_inject { fault = "corrupt-artifact"; victim = a.Artifact.a_name });
          t.corrupt <- t.corrupt + 1;
          if Metrics.enabled () then Metrics.incr "mcc_cache_corrupt_total";
          t.invalidations <- t.invalidations + 1;
          Hashtbl.remove t.defs fp;
          forget_sizes t fp;
          (match Hashtbl.find_opt t.latest a.Artifact.a_name with
          | Some latest_fp when latest_fp = fp -> Hashtbl.remove t.latest a.Artifact.a_name
          | _ -> ());
          None
        end
        else begin
          touch t fp;
          Some a
        end
  in
  (match r with None -> t.misses <- t.misses + 1 | Some _ -> t.hits <- t.hits + 1);
  Mutex.unlock t.mu;
  if Metrics.enabled () then
    Metrics.incr (match r with None -> "mcc_cache_miss_total" | Some _ -> "mcc_cache_hit_total");
  r

let store_interface t (a : Artifact.t) =
  if Metrics.enabled () then Metrics.incr "mcc_cache_store_total";
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.latest a.Artifact.a_name with
  | Some old_fp when old_fp <> a.Artifact.a_fingerprint ->
      (* the interface changed: the old artifact can never be hit again *)
      t.invalidations <- t.invalidations + 1;
      Hashtbl.remove t.defs old_fp;
      forget_sizes t old_fp
  | _ -> ());
  Hashtbl.replace t.defs a.Artifact.a_fingerprint a;
  Hashtbl.replace t.latest a.Artifact.a_name a.Artifact.a_fingerprint;
  record_size t a.Artifact.a_fingerprint a;
  enforce_cap t ~keep:(Some a.Artifact.a_fingerprint);
  Mutex.unlock t.mu

let interfaces t =
  Mutex.lock t.mu;
  let r = Hashtbl.fold (fun _ a acc -> a :: acc) t.defs [] in
  Mutex.unlock t.mu;
  List.sort (fun (a : Artifact.t) b -> compare a.Artifact.a_name b.Artifact.a_name) r

(* Peek at the most recently stored artifact for an interface name —
   the fine-grained reuse check's view of "the interface as it is now".
   No counter traffic: this is bookkeeping, not a cache probe. *)
let latest_artifact t name =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.latest name with
    | None -> None
    | Some fp -> Hashtbl.find_opt t.defs fp
  in
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
  modules : (string, 'r) Hashtbl.t; (* module key -> result *)
  latest_key : (string, string) Hashtbl.t; (* name -> last stored key *)
  mcosts : (string, float) Hashtbl.t; (* key -> recompute cost *)
  mpri : (string, float) Hashtbl.t; (* key -> GreedyDual priority *)
  persisted : (string, string) Hashtbl.t; (* key -> payload bytes last loaded or saved *)
  mutable ml : float; (* GreedyDual inflation level L *)
  mutable mhits : int;
  mutable mmisses : int;
  mutable minvalidations : int;
  mutable mevictions : int;
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
  }

(* Both must run under [m.mmu]. *)

let memo_drop m key =
  Hashtbl.remove m.modules key;
  Hashtbl.remove m.mcosts key;
  Hashtbl.remove m.mpri key;
  Hashtbl.remove m.persisted key

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
            memo_drop m key;
            Hashtbl.iter
              (fun n k -> if k = key then Hashtbl.remove m.latest_key n)
              (Hashtbl.copy m.latest_key);
            m.mevictions <- m.mevictions + 1;
            continue_ := Hashtbl.length m.modules > cap
      done

(* A whole-module key: configuration tag (cached results embed simulated
   timings), module name, implementation source digest, and the
   interface fingerprints of the module's own definition and direct
   imports — which cover every transitive interface.  [store] is the
   module-focused store (its main source is the implementation). *)
let module_key t ~memo ~config_tag store =
  let name = Source_store.main_name store in
  let src = Source_store.main_src store in
  let units = ref (hash_units (String.length src)) in
  let fp m =
    let fp, u = interface_fp t ~memo ~store m in
    units := !units + u;
    fp
  in
  let own = fp name in
  let subs = List.map fp (imports_of t src) in
  let key =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            (version :: config_tag :: name
            :: Digest.to_hex (Digest.string src)
            :: own :: subs)))
  in
  (key, !units)

let find_module m key =
  Mutex.lock m.mmu;
  let r = Hashtbl.find_opt m.modules key in
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
    | Some key -> Option.map (fun v -> (key, v)) (Hashtbl.find_opt m.modules key)
  in
  Mutex.unlock m.mmu;
  r

let store_module ?(cost = 1.0) m ~name ~key result =
  Mutex.lock m.mmu;
  (match Hashtbl.find_opt m.latest_key name with
  | Some old_key when old_key <> key ->
      m.minvalidations <- m.minvalidations + 1;
      memo_drop m old_key
  | _ -> ());
  Hashtbl.replace m.modules key result;
  (* a result stored under a persisted key replaces it: its old bytes
     must not be written back *)
  Hashtbl.remove m.persisted key;
  Hashtbl.replace m.latest_key name key;
  Hashtbl.replace m.mcosts key cost;
  Hashtbl.replace m.mpri key (m.ml +. cost);
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
   marshaled untyped; the [version] tag is the only format guard, so any
   change to the persisted result type must bump [version] (which also
   invalidates persisted artifacts — they evolve together). *)

let memo_file dir = Filename.concat dir "modules.bin"

let load_memo ?(decode = fun r -> r) t (m : 'r memo) =
  match t.dir with
  | None -> ()
  | Some dir -> (
      match open_in_bin (memo_file dir) with
      | exception Sys_error _ -> ()
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match
                (Marshal.from_channel ic
                  : string * (string * string) list * (string * string) list)
              with
              | exception _ -> () (* unreadable or truncated: start empty *)
              | v, modules, latest when v = version ->
                  Mutex.lock m.mmu;
                  List.iter
                    (fun (k, payload) ->
                      (* a payload that no longer unmarshals is dropped,
                         not fatal: the module just rebuilds cold *)
                      match (Marshal.from_string payload 0 : 'r) with
                      | exception _ -> ()
                      | r ->
                          Hashtbl.replace m.modules k (decode r);
                          Hashtbl.replace m.persisted k payload;
                          (* costs are not persisted: loaded entries
                             restart at the uniform (LRU-like) cost *)
                          Hashtbl.replace m.mcosts k 1.0;
                          Hashtbl.replace m.mpri k (m.ml +. 1.0))
                    modules;
                  List.iter
                    (fun (n, k) ->
                      if Hashtbl.mem m.modules k then Hashtbl.replace m.latest_key n k)
                    latest;
                  memo_enforce_cap m ~keep:None;
                  Mutex.unlock m.mmu
              | _ -> () (* format version changed: start empty *)))

let save_memo ?(encode = fun r -> r) t (m : 'r memo) =
  match t.dir with
  | None -> ()
  | Some dir ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      Mutex.lock m.mmu;
      let modules =
        Hashtbl.fold (fun k v acc -> (k, v, Hashtbl.find_opt m.persisted k) :: acc) m.modules []
      in
      let latest = Hashtbl.fold (fun n k acc -> (n, k) :: acc) m.latest_key [] in
      Mutex.unlock m.mmu;
      (* an entry loaded or saved before keeps its payload bytes, so only
         results stored since then are marshaled.  Fresh entries are
         marshaled one by one so a result that contains an unmarshalable
         value (a custom block the encoder missed, an exception payload)
         costs only its own entry *)
      let fresh = ref [] in
      let modules =
        List.filter_map
          (fun (k, r, bytes) ->
            match bytes with
            | Some payload -> Some (k, payload)
            | None -> (
                match Marshal.to_string (encode r) [] with
                | exception Invalid_argument _ -> None
                | payload ->
                    fresh := (k, r, payload) :: !fresh;
                    Some (k, payload)))
          modules
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let latest = List.sort compare latest in
      let oc = open_out_bin (memo_file dir) in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Marshal.to_channel oc (version, modules, latest) []);
      (* keep the bytes only while the entry is the one just marshaled *)
      Mutex.lock m.mmu;
      List.iter
        (fun (k, r, payload) ->
          match Hashtbl.find_opt m.modules k with
          | Some r' when r' == r -> Hashtbl.replace m.persisted k payload
          | _ -> ())
        !fresh;
      Mutex.unlock m.mmu
