(* Static import-graph analysis of a source store.

   Provides the "Imported Interfaces" and "Import Nesting Depth"
   attributes of Table 1: interfaces reachable from the main module, and
   the longest import chain.  Each file is scanned with the build
   cache's charge-free import scanner (no engine, no work charged). *)

open Mcc_core

(* All interfaces reachable from the main module (directly or
   indirectly), and the maximum import nesting depth: the length of the
   longest chain main -> I1 -> ... -> Ik counted in interfaces. *)
let analyze (store : Source_store.t) =
  let memo_depth = Hashtbl.create 32 in
  let visited = Hashtbl.create 32 in
  let rec depth_of name =
    match Hashtbl.find_opt memo_depth name with
    | Some d -> d
    | None ->
        Hashtbl.replace memo_depth name 0 (* cycle guard *);
        let d =
          match Source_store.def_src store name with
          | None -> 0
          | Some src ->
              Hashtbl.replace visited name ();
              let imps = Build_cache.scan_imports src in
              1 + List.fold_left (fun acc m -> max acc (depth_of m)) 0 imps
        in
        Hashtbl.replace memo_depth name d;
        d
  in
  let main_imports = Build_cache.scan_imports (Source_store.main_src store) in
  let depth = List.fold_left (fun acc m -> max acc (depth_of m)) 0 main_imports in
  (* depth_of visited everything reachable *)
  let interfaces = Hashtbl.length visited in
  (interfaces, depth)
