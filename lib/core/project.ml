(* Whole-program compilation: the "parallel make" layer above the
   concurrent compiler.

   The paper's unit of compilation is a single module (its interfaces
   are analyzed, but imported implementations are not compiled).  This
   layer compiles every module of a program — the main module plus each
   imported module whose implementation is in the store — each with the
   full concurrent compiler, and links all the code units into one
   executable program with Modula-2 initialization order: an imported
   module's body runs before its importer's, the main module's last.

   Unit keys are scope paths and interface frames have identical layouts
   no matter which compilation produced them, so cross-module linking is
   deduplication plus concatenation — the same schedule-independence
   argument as the single-module merge (paper §2.1).

   With a cache the layer is *incremental*, at two granularities:

   - Whole-module: a module whose own source, configuration and
     interface closure are unchanged is restored from its cached
     per-module result (paying only the hash + probe work, accounted in
     [reuse_units]).  The closure is compared by the identities of its
     artifacts in fine mode, by source fingerprints in coarse mode.
   - Slice-level (the fine-grained refinement, after Smits, Konat &
     Visser's hybrid incremental compilers): when the whole-module key
     misses because an interface changed, the module is dirty only if a
     declaration it actually *used* changed.  Each cached result has
     its dependency record stored beside it, decoded only on such a
     miss — per reached interface, the install digest (imports + frame
     + diagnostics) plus the slice digests of every exported name the
     compilation resolved (or failed to resolve) there.  An *interface
     refresh* prepass settles stale interfaces up front (see below): an
     unchanged shape is an {e early cutoff} — invalidation stops there
     and downstream modules reuse.

   One artifact serves every configuration, but the module key includes
   a configuration tag ([config_tag], shared with the compile server,
   whose cached Driver.results embed simulated timings).  A memo entry
   keeps only what reuse consumes (code, frames, diagnostics, verdict,
   with the dependency record beside it), not the compilation's trace
   or task lists, and the build's result keeps only a summary of each
   fresh compilation: a Driver.result is dropped as soon as its module
   is done.

   A build reads its sources once: [Build_cache.graph] gives every
   name's interface and implementation records and every interface's
   fingerprint, and the init order, the refresh prepass and the module
   keys all read that table. *)

open Mcc_m2
open Mcc_sched
open Mcc_codegen

(* One dependency of a cached module result on an interface it reached:
   [dep_install = None] records that the interface was missing.  Slice
   digests use reserved markers for negative dependencies — a name the
   compilation probed but did not find must *stay* absent. *)
type dep = {
  dep_name : string;
  dep_install : string option;
  dep_identity : string option; (* the artifact's identity, if it had one *)
  dep_slices : (string * string) list; (* probed exported name -> digest or marker *)
}

(* A memoized per-module compilation: only what a key hit consumes —
   the module's code units and frames for the link, its diagnostics and
   verdict, and the implementation source digest it was built from.
   Its dependency record is the memo entry's side record.  Marshal-safe
   as it is. *)
type entry = {
  e_units : Cunit.t list;
  e_frames : (string * (int * Tydesc.t) list * int) list;
  e_diags : Diag.d list;
  e_ok : bool;
  e_src_digest : string;
}

type cache = { bc : Build_cache.t; memo : (entry, dep list) Build_cache.memo }

let cache ?dir () =
  let bc = Build_cache.create ?dir () in
  let memo = Build_cache.memo () in
  Build_cache.load_memo bc memo;
  { bc; memo }

let save { bc; memo } =
  Build_cache.save bc;
  Build_cache.save_memo bc memo

type summary = { streams : int; tasks : int; units : float; seconds : float }

(* How the refresh prepass settled a stale interface (see [refresh]). *)
type settle =
  | Rekeyed
  | Kept
  | Changed of string list (* the exported names whose slices moved *)

type result = {
  program : Cunit.program;
  diags : Diag.d list;
  ok : bool;
  modules : string list; (* initialization order *)
  compiled : (string * summary) list; (* modules compiled this call, in init order *)
  total_units : float; (* summed virtual compile time across modules *)
  reused : string list; (* modules restored from the cache, in init order *)
  recompiled : string list; (* modules compiled this call, in init order *)
  reuse_units : float; (* hash + probe work charged for reuse checks *)
  refresh_units : float; (* virtual time of the interface refresh prepass *)
  cutoffs : string list; (* interfaces where invalidation stopped early, sorted *)
  explain : (string * string) list; (* module -> reuse/rebuild reason, init order *)
  settled : (string * settle) list; (* stale interface -> how the prepass settled it *)
}

(* Initialization order: depth-first over imports restricted to modules
   with implementations, imports sorted for determinism, main last.
   [imports] gives a module's direct imports, [None] when it has no
   implementation: the charge-free scan fingerprints use, so this query
   does no virtual work; [compile] reads them from its build's graph. *)
let order_by ~imports (store : Source_store.t) =
  let visited = Hashtbl.create (Source_store.n_names store) in
  let order = ref [] in
  let rec visit name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      match imports name with
      | None -> ()
      | Some is ->
          List.iter visit (List.sort String.compare is);
          order := name :: !order
    end
  in
  visit (Source_store.main_name store);
  List.rev !order

let init_order store =
  order_by store ~imports:(fun n -> Option.map Build_cache.scan_imports (Source_store.impl_src store n))

let config_tag (c : Driver.config) =
  (* fault specs are part of the tag: a cached result embeds robustness
     counters and simulated timings, both of which injection changes *)
  Printf.sprintf "%s|%s|%d|%g|%b|%d|%b|%s|%d"
    (Mcc_sem.Symtab.dky_name c.Driver.strategy)
    (match c.Driver.heading with Driver.Alt1 -> "alt1" | Driver.Alt3 -> "alt3")
    c.Driver.procs c.Driver.beta c.Driver.fifo_sched c.Driver.tokq_block c.Driver.tokq_barrier
    (String.concat "," (List.map Mcc_sched.Fault.spec_to_string c.Driver.faults))
    c.Driver.fault_seed

(* ------------------------------------------------------------------ *)
(* The fine-grained dependency record *)

(* Markers for states a slice dependency can be in besides "present with
   this digest".  They can never collide with a real digest (hex). *)
let marker_missing = "!missing" (* the whole interface had no source *)
let marker_absent = "!absent" (* the name was probed but not exported *)

(* An interface as it is now: its install digest, its artifact's
   identity and a lookup from exported name to slice digest (or
   marker). *)
let dep_view bc store m =
  match Source_store.def_src store m with
  | None -> (None, None, fun _ -> marker_missing)
  | Some _ -> (
      match Build_cache.latest_artifact bc m with
      | None ->
          (* reached interfaces always leave an artifact behind; an
             evicted one fails the equality check and forces a rebuild *)
          (Some marker_absent, None, fun _ -> marker_absent)
      | Some a ->
          ( Some a.Artifact.a_install,
            Some a.Artifact.a_digest,
            fun n -> Option.value ~default:marker_absent (Artifact.slice a n) ))

(* The dependency record of a just-compiled module: every interface the
   compilation reached (installed or compiled — their frames and
   replayed diagnostics are embedded in the result), each with the slice
   digests of the names the compilation probed there. *)
let deps_of bc store (r : Driver.result) =
  let used = r.Driver.used_slices in
  (* first binding wins, as with List.assoc_opt *)
  let names = Hashtbl.create (List.length used) in
  List.iter (fun (m, ns) -> if not (Hashtbl.mem names m) then Hashtbl.replace names m ns) used;
  let reached = r.Driver.cache_hits @ r.Driver.cache_misses @ List.map fst used in
  List.map
    (fun m ->
      let install, identity, slice = dep_view bc store m in
      let probed = Option.value ~default:[] (Hashtbl.find_opt names m) in
      {
        dep_name = m;
        dep_install = install;
        dep_identity = identity;
        dep_slices = List.map (fun n -> (n, slice n)) probed;
      })
    (List.sort_uniq compare reached)

(* Re-check a stored dependency record against the interfaces as they
   are now.  [Ok n] (n slices compared) means every reached interface
   installs identically and every probed name resolves to the same
   declaration, type identities included (or is still absent/missing):
   the cached result is valid even though fingerprints changed.  An
   interface whose artifact is still the one the record was made
   against is not read: the index holds its identity. *)
let check_deps bc store deps =
  let current m =
    if Source_store.has_def store m then
      Option.map Build_cache.stored_identity (Build_cache.latest bc m)
    else None
  in
  let n = ref 0 in
  let check d =
    if d.dep_identity <> None && current d.dep_name = d.dep_identity then begin
      n := !n + List.length d.dep_slices;
      None
    end
    else
      let install, _, slice = dep_view bc store d.dep_name in
      if install <> d.dep_install then
        Some
          (Printf.sprintf "interface %s changed shape (imports, frame or diagnostics)" d.dep_name)
      else
        List.find_map
          (fun (name, old) ->
            incr n;
            let now = slice name in
            if String.equal now old then None
            else
              Some
                (Printf.sprintf "used slice %s.%s %s" d.dep_name name
                   (if String.equal old marker_absent then "appeared"
                    else if String.equal now marker_absent then "was removed"
                    else "changed")))
          d.dep_slices
  in
  match List.find_map check deps with Some why -> Error why | None -> Ok !n

(* Which exported names of an edited interface actually changed — the
   explain output's slice-level diff of old vs regenerated artifact. *)
let slice_delta (old : Artifact.t) (now : Artifact.t) =
  let changed =
    List.filter_map
      (fun (n, d) -> if Artifact.slice now n = Some d then None else Some n)
      old.Artifact.a_slices
  in
  let added =
    List.filter_map
      (fun (n, _) -> if Artifact.slice old n = None then Some n else None)
      now.Artifact.a_slices
  in
  match List.sort_uniq compare (changed @ added) with
  | [] -> [ "(frame layout or diagnostics)" ]
  | names -> names

(* ------------------------------------------------------------------ *)
(* The interface refresh prepass

   Before any module is checked, every interface whose fingerprint moved
   away from its cached artifact is settled, so the per-module checks
   compare against artifacts that reflect the sources as they are now.
   Stale interfaces are settled in topological waves — an interface's
   wave comes after the waves of every stale interface it reaches — and
   each settles one of three ways:

   - re-keyed: its own text is unchanged and none of its imports got a
     new artifact, so its previous artifact is still exactly what an
     analysis would produce; it is stored under the current fingerprint
     (an index entry, Build_cache.rekey) and not analysed;
   - re-analysed and kept: the other stale interfaces of a wave are
     analysed together in one probe compilation importing them (their
     settled imports install from the cache).  If the regenerated shape
     equals the previous artifact's, the previous artifact is re-keyed
     and the fresh one dropped.  The shape renders every type's
     identity, where it is declared, beside its structure, so the two
     artifacts then differ at most in what no importer sees (the
     declaration offsets in an interface);
   - re-analysed and changed: otherwise the fresh artifact stays.

   Keeping previous artifacts keeps artifact identities, so importers
   re-key in turn and module keys, which hash identities, still hit.
   An import cycle (Build_cache.condense) settles as one wave member,
   each member kept or changed by its own shape. *)

(* [fp] is the charged fingerprint of the build; returns the prepass's
   virtual time and per stale interface how it settled (settle order). *)
let refresh ~config bc store g ~fp =
  let imports = Build_cache.def_imports g in
  (* the interfaces without a cached artifact, the stale ones (in name
     order), and the stale ones whose text is unchanged *)
  let defs = Build_cache.graph_defs g in
  let uncached = Hashtbl.create 16 and stale = Hashtbl.create 16 in
  let same_text = Hashtbl.create 16 in
  let order =
    List.sort String.compare
    @@ List.filter_map
      (fun n ->
        match Build_cache.latest bc n with
        | None ->
            (* nothing cached: no propagation to cut off *)
            Hashtbl.replace uncached n ();
            None
        | Some old ->
            let now = fp n in
            if String.equal now (Build_cache.stored_fingerprint old) then None
            else begin
              let source = Option.get (Build_cache.interface_digest g n) in
              Hashtbl.replace stale n (old, now, source);
              if String.equal source (Build_cache.stored_source old) then
                Hashtbl.replace same_text n ();
              Some n
            end)
      defs
  in
  (* per interface reached from a stale one its wave and its component:
     the deepest wave below the component, plus one if a member is stale *)
  let wave = Hashtbl.create 16 in
  Build_cache.condense ~node:imports ~edges:Fun.id ~settled:(Hashtbl.mem wave)
    (fun ms ->
      let below acc i = max acc (Option.fold ~none:0 ~some:fst (Hashtbl.find_opt wave i)) in
      let d = List.fold_left below 0 (List.concat_map snd ms) in
      let ms = List.map fst ms in
      let d = if List.exists (Hashtbl.mem stale) ms then d + 1 else d in
      List.iter (fun m -> Hashtbl.replace wave m (d, ms)) ms)
    order;
  let depth n = fst (Hashtbl.find wave n) and component n = snd (Hashtbl.find wave n) in
  let waves =
    let deepest = List.fold_left (fun acc n -> max acc (depth n)) 0 order in
    List.init deepest (fun k -> List.filter (fun n -> depth n = k + 1) order)
  in
  let status = Hashtbl.create 16 in
  let settled = ref [] and units = ref 0.0 in
  let settle n how =
    Hashtbl.replace status n how;
    settled := (n, how) :: !settled
  in
  (* an import whose importers' previous artifacts are still valid *)
  let unchanged i =
    match Hashtbl.find_opt status i with
    | Some (Rekeyed | Kept) -> true
    | Some (Changed _) -> false
    | None ->
        (* not stale: cached under its current fingerprint, or missing
           now and with nothing cached from when it was present *)
        if Source_store.has_def store i then not (Hashtbl.mem uncached i)
        else Build_cache.latest bc i = None
  in
  let analyse targets =
    let probe = Source_store.probe store ~prefix:"MccRefresh" targets in
    let pr = Driver.compile ~config ~cache:g probe in
    units := !units +. pr.Driver.sim.Des_engine.end_time;
    List.iter
      (fun n ->
        let old, fp, source = Hashtbl.find stale n in
        let prev = Build_cache.stored_artifact bc old in
        let fresh =
          match Build_cache.latest bc n with
          | Some s when String.equal (Build_cache.stored_fingerprint s) fp ->
              Build_cache.stored_artifact bc s
          | _ -> None
        in
        match (prev, fresh) with
        | Some prev, Some now when String.equal prev.Artifact.a_shape now.Artifact.a_shape ->
            Build_cache.rekey bc old ~fp ~source;
            settle n Kept
        | Some prev, Some now -> settle n (Changed (slice_delta prev now))
        | _, None -> settle n (Changed [ "(interface vanished)" ])
        | None, Some _ -> settle n (Changed [ "(previous artifact unreadable)" ]))
      targets
  in
  List.iter
    (fun wave ->
      let targets =
        List.filter
          (fun n ->
            let old, fp, source = Hashtbl.find stale n in
            let ms = component n in
            (* an unsettled member counts as unchanged: its text decides *)
            if
              List.for_all (Hashtbl.mem same_text) ms
              && List.for_all unchanged (List.concat_map imports ms)
            then begin
              Build_cache.rekey bc old ~fp ~source;
              units := !units +. float_of_int Costs.cache_probe;
              settle n Rekeyed;
              false
            end
            else true)
          wave
      in
      if targets <> [] then analyse targets)
    waves;
  (!units, List.rev !settled)

(* ------------------------------------------------------------------ *)

let compile ?(config = Driver.default_config) ?(fine = true) ?cache
    (store : Source_store.t) : result =
  (* the cache with the build's inputs, derived once *)
  let cache = Option.map (fun c -> (c, Build_cache.graph c.bc store)) cache in
  let names =
    match cache with
    | Some (_, g) -> order_by ~imports:(Build_cache.impl_imports g) store
    | None -> init_order store
  in
  let reuse_units = ref 0 in
  let tag = config_tag config in
  let refresh_units, settled =
    match cache with
    | Some ({ bc; _ }, g) when fine ->
        let fp n =
          let fp, units = Build_cache.fingerprint g n in
          reuse_units := !reuse_units + units;
          fp
        in
        refresh ~config bc store g ~fp
    | _ -> (0.0, [])
  in
  (* A module's key.  In fine mode it hashes the identities of the
     artifacts of its interface closure, so a re-keyed interface keeps
     its importers' keys; whole-module mode keys on the sources. *)
  let key_of g name =
    if fine then Build_cache.identity_key g ~config_tag:tag name
    else Build_cache.module_key g ~config_tag:tag name
  in
  (* The slim memo entry and the summary of a fresh result: nothing else
     of it outlives its module. *)
  let entry_of ~src_digest (r : Driver.result) =
    ( {
        e_units = Hashtbl.fold (fun _ u acc -> u :: acc) r.Driver.program.Cunit.p_units [];
        e_frames = r.Driver.program.Cunit.p_frames;
        e_diags = r.Driver.diags;
        e_ok = r.Driver.ok;
        e_src_digest = src_digest;
      },
      {
        streams = r.Driver.n_streams;
        tasks = r.Driver.n_tasks;
        units = r.Driver.sim.Des_engine.end_time;
        seconds = r.Driver.sim.Des_engine.end_seconds;
      } )
  in
  (* per module: its entry, its summary if compiled this call, and its
     reuse verdict (None without a cache) *)
  let compile_one name =
    match cache with
    | Some ({ bc; memo }, g) -> (
        let mname = tag ^ "|" ^ name in
        (* The key is computed only if the memo holds a result for the
           module, else after its compile.  Either way the model charges
           one key's hashing and one probe per module. *)
        let charged_key () =
          let key, units = key_of g name in
          reuse_units := !reuse_units + units;
          key
        in
        reuse_units := !reuse_units + Costs.cache_probe;
        let src_digest = Build_cache.impl_digest g name in
        let verdict =
          match Build_cache.lookup_module memo ~name:mname ~key:charged_key with
          | None -> `Rebuild (None, "no previous build")
          | Some (key, prev_key, prev) -> (
              if String.equal key prev_key then
                `Reuse (prev, "unchanged inputs (whole-module key hit)")
              else if not (String.equal prev.e_src_digest src_digest) then
                `Rebuild (Some key, "implementation changed")
              else if not fine then
                `Rebuild (Some key, "an imported interface changed (whole-module invalidation)")
              else
                match Build_cache.latest_side memo ~name:mname with
                | None -> `Rebuild (Some key, "its dependency record is unreadable")
                | Some deps -> (
                    match check_deps bc store deps with
                    | Ok nslices -> `Cutoff (key, prev, nslices)
                    | Error why -> `Rebuild (Some key, why)))
        in
        match verdict with
        | `Reuse (e, why) -> (name, e, None, Some (true, why))
        | `Cutoff (key, prev, nslices) ->
            (* re-key the entry under the new whole-module key so the
               next unchanged build hits without re-checking *)
            Build_cache.rekey_module memo ~name:mname ~key;
            ( name,
              prev,
              None,
              Some (true, Printf.sprintf "early cutoff: all %d used slices unchanged" nslices) )
        | `Rebuild (key, why) ->
            let focused = Source_store.focus store name in
            let r = Driver.compile ~config ~cache:g focused in
            let e, summary = entry_of ~src_digest r in
            (* the compilation stored the artifacts its closure lacked:
               key the entry as the next build will look for it *)
            let key =
              match key with
              | None -> charged_key ()
              | Some key -> if fine then fst (key_of g name) else key
            in
            (* prune per (configuration, module): an edit invalidates a
               module's stale result without evicting the same module's
               still-valid results under other configurations *)
            Build_cache.store_module memo ~name:mname ~key ~side:(deps_of bc store r) e;
            (name, e, Some summary, Some (false, why)))
    | None ->
        let e, summary = entry_of ~src_digest:"" (Driver.compile ~config (Source_store.focus store name)) in
        (name, e, Some summary, None)
  in
  let built = List.map compile_one names in
  let compiled = List.filter_map (fun (n, _, s, _) -> Option.map (fun s -> (n, s)) s) built in
  (* merge: units are unique by construction (each implementation is
     compiled exactly once); interface frames repeat across compilations
     with identical layouts and are deduplicated by key *)
  let n_frames = List.fold_left (fun n (_, e, _, _) -> n + List.length e.e_frames) 0 built in
  let units = ref [] and seen = Hashtbl.create n_frames and frames = ref [] and diags = ref [] in
  List.iter
    (fun (_, e, _, _) ->
      diags := e.e_diags :: !diags;
      units := List.rev_append e.e_units !units;
      List.iter
        (fun ((key, _, _) as frame) ->
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            frames := frame :: !frames
          end)
        e.e_frames)
    built;
  (* first occurrences, in initialization order *)
  let frames = List.rev !frames in
  let program =
    Cunit.link ~init:names ~entry:(Source_store.main_name store) ~frames !units
  in
  let diags = List.sort Diag.compare_d (List.concat !diags) in
  let reuse_units = float_of_int !reuse_units in
  let is_reused = function Some (true, _) -> true | _ -> false in
  {
    program;
    diags;
    ok = List.for_all (fun (_, e, _, _) -> e.e_ok) built;
    modules = names;
    compiled;
    total_units =
      (* reused modules are not re-simulated: they contribute only the
         reuse check's work, not their cached end-to-end compile time *)
      List.fold_left (fun acc (_, s) -> acc +. s.units) (reuse_units +. refresh_units) compiled;
    reused = List.filter_map (fun (n, _, _, st) -> if is_reused st then Some n else None) built;
    recompiled =
      List.filter_map (fun (n, _, _, st) -> if is_reused st then None else Some n) built;
    reuse_units;
    refresh_units;
    cutoffs =
      List.sort compare (List.filter_map (function _, Changed _ -> None | n, _ -> Some n) settled);
    settled;
    explain =
      List.map
        (fun (n, _, _, st) ->
          match st with
          | None -> (n, "compiled (no cache)")
          | Some (true, why) -> (n, "reused: " ^ why)
          | Some (false, why) -> (n, "recompiled: " ^ why))
        built;
  }
