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
     transitive interface fingerprints are unchanged is restored from
     its cached per-module result (paying only the hash + probe work,
     accounted in [reuse_units]).
   - Slice-level (the fine-grained refinement, after Smits, Konat &
     Visser's hybrid incremental compilers): when the whole-module key
     misses because an interface changed, the module is dirty only if a
     declaration it actually *used* changed.  Each cached result carries
     its dependency record — per reached interface, the install digest
     (imports + frame + diagnostics) plus the slice digests of every
     exported name the compilation resolved (or failed to resolve)
     there.  An *interface refresh* prepass re-analyzes edited
     interfaces up front and compares regenerated shapes against the
     cached ones: an identical shape is an {e early cutoff} —
     invalidation stops there and downstream modules reuse.

   One artifact serves every configuration, but the module key includes
   a configuration tag ([config_tag], shared with the compile server,
   whose cached Driver.results embed simulated timings).  A memo entry
   keeps only what reuse consumes (code, frames, diagnostics, verdict,
   dependency record), not the compilation's trace or task lists, and
   the build's result keeps only a summary of each fresh compilation:
   a Driver.result is dropped as soon as its module is done. *)

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
  dep_slices : (string * string) list; (* probed exported name -> digest or marker *)
}

(* A memoized per-module compilation: only what reuse consumes — the
   module's code units and frames for the link, its diagnostics and
   verdict, the implementation source digest it was built from and its
   dependency record.  Marshal-safe as it is. *)
type entry = {
  e_units : Cunit.t list;
  e_frames : (string * (int * Tydesc.t) list * int) list;
  e_diags : Diag.d list;
  e_ok : bool;
  e_src_digest : string;
  e_deps : dep list;
}

type cache = { bc : Build_cache.t; memo : entry Build_cache.memo }

let cache ?dir () =
  let bc = Build_cache.create ?dir () in
  let memo = Build_cache.memo () in
  Build_cache.load_memo bc memo;
  { bc; memo }

let save { bc; memo } =
  Build_cache.save bc;
  Build_cache.save_memo bc memo

type summary = { streams : int; tasks : int; units : float; seconds : float }

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
  iface_changes : (string * string list) list; (* edited interface -> changed slices *)
  explain : (string * string) list; (* module -> reuse/rebuild reason, init order *)
}

(* Initialization order: depth-first over imports restricted to modules
   with implementations, imports sorted for determinism, main last.
   [imports] is the charge-free scan fingerprints use, so this query
   does no virtual work; [compile] passes its cache's source table so
   each source is scanned once per build. *)
let order_by ~imports (store : Source_store.t) =
  let visited = Hashtbl.create 8 in
  let order = ref [] in
  let rec visit name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      match Source_store.impl_src store name with
      | None -> ()
      | Some src ->
          List.iter visit (List.sort compare (imports src));
          order := name :: !order
    end
  in
  visit (Source_store.main_name store);
  List.rev !order

let init_order store = order_by ~imports:Build_cache.scan_imports store

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

(* An interface as it is now: its install digest and a lookup from
   exported name to slice digest (or marker). *)
let dep_view bc store m =
  match Source_store.def_src store m with
  | None -> (None, fun _ -> marker_missing)
  | Some _ -> (
      match Build_cache.latest_artifact bc m with
      | None ->
          (* reached interfaces always leave an artifact behind; an
             evicted one fails the equality check and forces a rebuild *)
          (Some marker_absent, fun _ -> marker_absent)
      | Some a ->
          ( Some a.Artifact.a_install,
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
      let install, slice = dep_view bc store m in
      let probed = Option.value ~default:[] (Hashtbl.find_opt names m) in
      { dep_name = m; dep_install = install; dep_slices = List.map (fun n -> (n, slice n)) probed })
    (List.sort_uniq compare reached)

(* Re-check a stored dependency record against the interfaces as they
   are now.  [Ok n] (n slices compared) means every reached interface
   installs identically and every probed name resolves to the same
   declaration (or is still absent/missing): the cached result is valid
   even though fingerprints changed. *)
let check_deps bc store deps =
  let n = ref 0 in
  let rec go = function
    | [] -> Ok !n
    | d :: rest -> (
        let install, slice = dep_view bc store d.dep_name in
        if install <> d.dep_install then
          Error
            (Printf.sprintf "interface %s changed shape (imports, frame or diagnostics)"
               d.dep_name)
        else
          let bad =
            List.find_opt
              (fun (name, old) ->
                incr n;
                not (String.equal (slice name) old))
              d.dep_slices
          in
          match bad with
          | Some (name, old) ->
              let verb =
                if String.equal old marker_absent then "appeared"
                else if String.equal (slice name) marker_absent then "was removed"
                else "changed"
              in
              Error (Printf.sprintf "used slice %s.%s %s" d.dep_name name verb)
          | None -> go rest)
  in
  go deps

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

let compile ?(config = Driver.default_config) ?(fine = true) ?cache
    (store : Source_store.t) : result =
  let names =
    match cache with
    | Some { bc; _ } -> order_by ~imports:(Build_cache.imports_of bc) store
    | None -> init_order store
  in
  let reuse_units = ref 0 in
  (* one fingerprint memo for the whole call: sources are fixed *)
  let fp_memo = Hashtbl.create 16 in
  let tag = config_tag config in
  let cutoffs = ref [] in
  let iface_changes = ref [] in
  let refresh_units = ref 0.0 in
  (* Interface refresh prepass (fine-grained mode only): re-analyze
     every interface whose fingerprint moved away from its cached
     artifact, so the per-module dependency checks below compare against
     artifacts that reflect the sources as they are *now*.  One probe
     compilation importing all edited interfaces refreshes them (its
     unedited transitive imports install from the cache); each refreshed
     shape equal to the cached one is an early cutoff. *)
  (match cache with
  | Some { bc; _ } when fine ->
      let stale =
        List.filter_map
          (fun n ->
            match Build_cache.latest_fingerprint bc n with
            | None -> None (* nothing cached: no propagation to cut off *)
            | Some old_fp ->
                let fp, units = Build_cache.interface_fp bc ~memo:fp_memo ~store n in
                reuse_units := !reuse_units + units;
                (* only a stale artifact is decoded *)
                if String.equal fp old_fp then None
                else Option.map (fun old -> (n, old)) (Build_cache.latest_artifact bc n))
          (Source_store.def_names store)
      in
      if stale <> [] then begin
        let defs =
          List.filter_map
            (fun n -> Option.map (fun s -> (n, s)) (Source_store.def_src store n))
            (Source_store.def_names store)
        in
        let buf = Buffer.create 256 in
        Buffer.add_string buf "IMPLEMENTATION MODULE MccRefresh;\n";
        List.iter
          (fun (n, _) -> Buffer.add_string buf (Printf.sprintf "IMPORT %s;\n" n))
          stale;
        Buffer.add_string buf "BEGIN\nEND MccRefresh.\n";
        let probe =
          Source_store.make ~main_name:"MccRefresh" ~main_src:(Buffer.contents buf)
            ~defs ()
        in
        let pr = Driver.compile ~config ~cache:bc probe in
        refresh_units := pr.Driver.sim.Mcc_sched.Des_engine.end_time;
        List.iter
          (fun (n, (old : Artifact.t)) ->
            match Build_cache.latest_artifact bc n with
            | Some now when String.equal now.Artifact.a_shape old.Artifact.a_shape ->
                cutoffs := n :: !cutoffs
            | Some now -> iface_changes := (n, slice_delta old now) :: !iface_changes
            | None -> iface_changes := (n, [ "(interface vanished)" ]) :: !iface_changes)
          stale
      end
  | _ -> ());
  (* The slim memo entry and the summary of a fresh result: nothing else
     of it outlives its module. *)
  let entry_of ~src_digest ~deps (r : Driver.result) =
    ( {
        e_units = Hashtbl.fold (fun _ u acc -> u :: acc) r.Driver.program.Cunit.p_units [];
        e_frames = r.Driver.program.Cunit.p_frames;
        e_diags = r.Driver.diags;
        e_ok = r.Driver.ok;
        e_src_digest = src_digest;
        e_deps = deps;
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
    let focused = Source_store.focus store name in
    match cache with
    | None ->
        let e, summary = entry_of ~src_digest:"" ~deps:[] (Driver.compile ~config focused) in
        (name, e, Some summary, None)
    | Some { bc; memo } -> (
        let mname = tag ^ "|" ^ name in
        let key, units = Build_cache.module_key bc ~memo:fp_memo ~config_tag:tag focused in
        reuse_units := !reuse_units + units + Costs.cache_probe;
        let src_digest = Build_cache.source_digest bc (Source_store.main_src focused) in
        let verdict =
          match Build_cache.find_module memo key with
          | Some e -> `Reuse (e, "unchanged inputs (whole-module key hit)")
          | None -> (
              match Build_cache.find_latest_module memo ~name:mname with
              | None -> `Rebuild "no previous build"
              | Some (_, prev) ->
                  if not (String.equal prev.e_src_digest src_digest) then
                    `Rebuild "implementation changed"
                  else if not fine then
                    `Rebuild "an imported interface changed (whole-module invalidation)"
                  else (
                    match check_deps bc store prev.e_deps with
                    | Ok nslices -> `Cutoff (prev, nslices)
                    | Error why -> `Rebuild why))
        in
        match verdict with
        | `Reuse (e, why) -> (name, e, None, Some (true, why))
        | `Cutoff (prev, nslices) ->
            (* re-key the entry under the new whole-module key so the
               next unchanged build coarse-hits without re-checking *)
            Build_cache.store_module memo ~name:mname ~key prev;
            ( name,
              prev,
              None,
              Some (true, Printf.sprintf "early cutoff: all %d used slices unchanged" nslices) )
        | `Rebuild why ->
            let shape_before =
              Option.map (fun a -> a.Artifact.a_shape) (Build_cache.latest_artifact bc name)
            in
            let r = Driver.compile ~config ~cache:bc focused in
            let e, summary = entry_of ~src_digest ~deps:(deps_of bc store r) r in
            (* prune per (configuration, module): an edit invalidates a
               module's stale result without evicting the same module's
               still-valid results under other configurations *)
            Build_cache.store_module memo ~name:mname ~key e;
            (match (shape_before, Build_cache.latest_artifact bc name) with
            | Some s0, Some a when fine && String.equal a.Artifact.a_shape s0 ->
                (* the rebuilt module's own regenerated interface came
                   out byte-identical: importers need not rebuild *)
                if not (List.mem name !cutoffs) then cutoffs := name :: !cutoffs
            | _ -> ());
            (name, e, Some summary, Some (false, why)))
  in
  let built = List.map compile_one names in
  let compiled = List.filter_map (fun (n, _, s, _) -> Option.map (fun s -> (n, s)) s) built in
  (* merge: units are unique by construction (each implementation is
     compiled exactly once); interface frames repeat across compilations
     with identical layouts and are deduplicated by key *)
  let units = ref [] and frames = Hashtbl.create 16 and diags = ref [] in
  List.iter
    (fun (_, e, _, _) ->
      diags := e.e_diags :: !diags;
      units := e.e_units @ !units;
      List.iter
        (fun ((key, _, _) as frame) ->
          if not (Hashtbl.mem frames key) then Hashtbl.replace frames key frame)
        e.e_frames)
    built;
  let frames = Hashtbl.fold (fun _ f acc -> f :: acc) frames [] in
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
      List.fold_left (fun acc (_, s) -> acc +. s.units) (reuse_units +. !refresh_units) compiled;
    reused = List.filter_map (fun (n, _, _, st) -> if is_reused st then Some n else None) built;
    recompiled =
      List.filter_map (fun (n, _, _, st) -> if is_reused st then None else Some n) built;
    reuse_units;
    refresh_units = !refresh_units;
    cutoffs = List.sort_uniq compare !cutoffs;
    iface_changes = List.sort (fun (a, _) (b, _) -> compare a b) !iface_changes;
    explain =
      List.map
        (fun (n, _, _, st) ->
          match st with
          | None -> (n, "compiled (no cache)")
          | Some (true, why) -> (n, "reused: " ^ why)
          | Some (false, why) -> (n, "recompiled: " ^ why))
        built;
  }
