(* The module registry: module name -> definition-module scope.

   The Importer creates a definition module's scope (and registers it)
   *before* spawning the stream that populates it — the "once-only table"
   of paper §3 — so any task can immediately obtain the scope object for
   qualified lookups and let the DKY machinery handle its incompleteness.
   Registration is idempotent per compilation: each interface is
   processed exactly once no matter how many modules import it. *)

type t = { mu : Mutex.t; tbl : (string, Symtab.t) Hashtbl.t }

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 16 }

(* Returns the scope and whether this call created it (creator must spawn
   the processing stream). *)
let intern t name =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.tbl name with
    | Some scope -> (scope, false)
    | None ->
        let scope = Symtab.create (Symtab.KDef name) in
        Hashtbl.replace t.tbl name scope;
        (scope, true)
  in
  Mutex.unlock t.mu;
  r

let find t name =
  Mutex.lock t.mu;
  let r = Hashtbl.find_opt t.tbl name in
  Mutex.unlock t.mu;
  r

let count t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mu;
  n

let names t =
  Mutex.lock t.mu;
  let r = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] in
  Mutex.unlock t.mu;
  List.sort compare r

let to_list t =
  Mutex.lock t.mu;
  let r = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [] in
  Mutex.unlock t.mu;
  List.sort (fun (a, _) (b, _) -> compare a b) r
