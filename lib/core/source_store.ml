(* The compilation's view of the file system.

   A unit of compilation is a module M represented by M.mod (the
   implementation) and, usually, M.def (its interface), together with the
   interfaces of everything it imports directly or indirectly (paper §3).
   The store abstracts over real files versus generated in-memory sources
   so the benchmark harness can compile synthetic programs without
   touching disk. *)

type t = {
  main_name : string;
  main_src : string;
  defs : (string, string) Hashtbl.t;
  impls : (string, string) Hashtbl.t; (* other modules' implementations *)
}

(* A table of [entries] (distinct names), created at the size growing
   from empty would reach, so that filling it never resizes and it
   iterates in the same order as a grown one. *)
let table_of entries =
  let t = Hashtbl.create ((List.length entries + 1) / 2) in
  List.iter (fun (n, s) -> Hashtbl.replace t n s) entries;
  t

let make ?(impls = []) ~main_name ~main_src ~defs () =
  let tbl = table_of defs and itbl = table_of impls in
  { main_name; main_src; defs = tbl; impls = itbl }

let main_name t = t.main_name
let main_src t = t.main_src
let main_file t = t.main_name ^ ".mod"
let def_src t name = Hashtbl.find_opt t.defs name
let def_file name = name ^ ".def"
let has_def t name = Hashtbl.mem t.defs name
let def_names t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.defs [])

(* Implementation source of any module in the program (the main module
   included). *)
let impl_src t name =
  if name = t.main_name then Some t.main_src else Hashtbl.find_opt t.impls name

let iter_defs t f = Hashtbl.iter f t.defs

let iter_impls t f =
  Hashtbl.iter (fun n s -> if n <> t.main_name then f n s) t.impls;
  f t.main_name t.main_src

let n_names t = Hashtbl.length t.defs + Hashtbl.length t.impls + 1

let impl_names t =
  List.sort String.compare
    (t.main_name :: Hashtbl.fold (fun k _ acc -> k :: acc) t.impls [])

(* A view of the same program with [name] as the compilation unit. *)
let focus t name =
  match impl_src t name with
  | None -> invalid_arg ("Source_store.focus: no implementation for " ^ name)
  | Some src -> { t with main_name = name; main_src = src }

(* An empty main module named [prefix] (numbered past any name the
   store uses) that imports [imports], over the store's interfaces. *)
let probe t ~prefix imports =
  let rec fresh n =
    let name = if n = 0 then prefix else Printf.sprintf "%s%d" prefix n in
    if Hashtbl.mem t.defs name || t.main_name = name then fresh (n + 1) else name
  in
  let name = fresh 0 in
  let uses = String.concat "" (List.map (fun i -> "IMPORT " ^ i ^ ";\n") imports) in
  {
    main_name = name;
    main_src = Printf.sprintf "IMPLEMENTATION MODULE %s;\n%sBEGIN\nEND %s.\n" name uses name;
    defs = t.defs;
    impls = Hashtbl.create 1;
  }

(* Total source bytes: the module plus every interface it could load —
   used for the Table 1 "module size" attribute. *)
let total_bytes t =
  Hashtbl.fold (fun _ s acc -> acc + String.length s) t.defs (String.length t.main_src)

(* Load M.mod and sibling .def files from a directory (the CLI path). *)
let of_directory ~dir ~main_name =
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let main_src = read (Filename.concat dir (main_name ^ ".mod")) in
  let files = Sys.readdir dir |> Array.to_list in
  let defs =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".def" then
          Some (Filename.chop_suffix f ".def", read (Filename.concat dir f))
        else None)
      files
  in
  let impls =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".mod" && Filename.chop_suffix f ".mod" <> main_name then
          Some (Filename.chop_suffix f ".mod", read (Filename.concat dir f))
        else None)
      files
  in
  make ~impls ~main_name ~main_src ~defs ()
