(* Static import-graph analysis of a source store.

   Provides the "Imported Interfaces" and "Import Nesting Depth"
   attributes of Table 1: interfaces reachable from the main module, and
   the longest import chain.  Each file is scanned with the build
   cache's charge-free import scanner (no engine, no work charged). *)

open Mcc_core

(* All interfaces reachable from the main module (directly or
   indirectly), and the maximum import nesting depth: the length of the
   longest chain main -> I1 -> ... -> Ik counted in interfaces, an
   import cycle counting once. *)
let analyze (store : Source_store.t) =
  let imports m = Option.fold ~none:[] ~some:Build_cache.scan_imports (Source_store.def_src store m) in
  let depth = Hashtbl.create 32 in
  let depth_of m = Option.value ~default:0 (Hashtbl.find_opt depth m) in
  let main_imports = Build_cache.scan_imports (Source_store.main_src store) in
  Build_cache.condense ~node:imports ~edges:Fun.id ~settled:(Hashtbl.mem depth)
    (fun ms ->
      (* the members have no depth yet: only outside imports count *)
      let below = List.fold_left (fun acc i -> max acc (depth_of i)) 0 (List.concat_map snd ms) in
      List.iter
        (fun (m, _) -> Hashtbl.replace depth m (if Source_store.has_def store m then 1 + below else 0))
        ms)
    main_imports;
  (* an interface reached has a depth of at least 1 *)
  let interfaces = Hashtbl.fold (fun _ d n -> if d > 0 then n + 1 else n) depth 0 in
  (interfaces, List.fold_left (fun acc m -> max acc (depth_of m)) 0 main_imports)
