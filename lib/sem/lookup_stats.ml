(* Identifier-lookup statistics: the instrumentation behind the paper's
   Table 2.

   Every symbol-table lookup is classified by
   - kind: simple identifier vs qualified identifier,
   - "Found when": first try / outward search / after a DKY blockage,
   - the scope the identifier was found in: self / other (an explicitly
     designated initial scope, e.g. a FROM-imported name) / outer /
     WITH / builtin,
   - the completeness of that scope at the start of the search,
   plus a "never found" count.  Counters are aggregated per compilation
   and mergeable across a whole test-suite run. *)

type kind = Simple | Qualified
type found_when = FirstTry | Search | AfterDKY
type scope_class = CSelf | COther | COuter | CWith | CBuiltin
type completeness = Complete | Incomplete

(* Counters live in one flat array of atomics, indexed by the lookup's
   (kind, found, scope, completeness) cell, so recording a lookup is one
   atomic increment: no lock, no hashing, no allocation.  Only the
   used-slice set, a table of strings, still takes the mutex. *)
let kind_ix = function Simple -> 0 | Qualified -> 1
let found_ix = function FirstTry -> 0 | Search -> 1 | AfterDKY -> 2
let scope_ix = function CSelf -> 0 | COther -> 1 | COuter -> 2 | CWith -> 3 | CBuiltin -> 4
let compl_ix = function Complete -> 0 | Incomplete -> 1

let cell ~kind ~found ~scope ~compl =
  (((((kind_ix kind * 3) + found_ix found) * 5) + scope_ix scope) * 2) + compl_ix compl

let per_kind = 3 * 5 * 2
let n_cells = 2 * per_kind

module Names = Hashtbl.Make (String)

type t = {
  counts : int Atomic.t array; (* by [cell] *)
  never : int Atomic.t array; (* by [kind_ix] *)
  dky_blocks : int Atomic.t; (* lookups that incurred a DKY wait *)
  duplicate_searches : int Atomic.t; (* skeptical re-searches after a wait *)
  total_probes : int Atomic.t; (* scope tables probed *)
  mu : Mutex.t; (* guards [uses] *)
  uses : unit Names.t Names.t;
      (* imported module -> exported names actually looked up there: the
         used-slice set fine-grained invalidation keys on *)
}

let counters n = Array.init n (fun _ -> Atomic.make 0)

let create () =
  {
    counts = counters n_cells;
    never = counters 2;
    dky_blocks = Atomic.make 0;
    duplicate_searches = Atomic.make 0;
    total_probes = Atomic.make 0;
    mu = Mutex.create ();
    uses = Names.create 16;
  }

let lock t = Mutex.lock t.mu
let unlock t = Mutex.unlock t.mu

let record t ~kind ~found ~scope ~compl = Atomic.incr t.counts.(cell ~kind ~found ~scope ~compl)
let record_never t ~kind = Atomic.incr t.never.(kind_ix kind)
let record_dky t = Atomic.incr t.dky_blocks
let record_duplicate t = Atomic.incr t.duplicate_searches
let record_probe t = Atomic.incr t.total_probes

let record_use t ~import ~name =
  lock t;
  (match Names.find_opt t.uses import with
  | Some set -> Names.replace set name ()
  | None ->
      let set = Names.create 8 in
      Names.replace set name ();
      Names.replace t.uses import set);
  unlock t

let used_slices t =
  lock t;
  let r =
    Names.fold
      (fun m set acc ->
        let names = Names.fold (fun n () ns -> n :: ns) set [] in
        (m, List.sort compare names) :: acc)
      t.uses []
  in
  unlock t;
  List.sort compare r


let merge ~into src =
  let add dst a = ignore (Atomic.fetch_and_add dst (Atomic.get a)) in
  Array.iteri (fun i a -> add into.counts.(i) a) src.counts;
  Array.iteri (fun i a -> add into.never.(i) a) src.never;
  add into.dky_blocks src.dky_blocks;
  add into.duplicate_searches src.duplicate_searches;
  add into.total_probes src.total_probes;
  lock src;
  let uses =
    Names.fold
      (fun m set acc -> (m, Names.fold (fun n () ns -> n :: ns) set []) :: acc)
      src.uses []
  in
  unlock src;
  lock into;
  List.iter
    (fun (m, names) ->
      let set =
        match Names.find_opt into.uses m with
        | Some s -> s
        | None ->
            let s = Names.create 8 in
            Names.replace into.uses m s;
            s
      in
      List.iter (fun n -> Names.replace set n ()) names)
    uses;
  unlock into

let get t ~kind ~found ~scope ~compl = Atomic.get t.counts.(cell ~kind ~found ~scope ~compl)
let never t ~kind = Atomic.get t.never.(kind_ix kind)
let dky_blocks t = Atomic.get t.dky_blocks
let duplicate_searches t = Atomic.get t.duplicate_searches
let total_probes t = Atomic.get t.total_probes

(* A kind's cells are the [per_kind] consecutive ones from its base. *)
let total t ~kind =
  let base = kind_ix kind * per_kind in
  let sum = ref (never t ~kind) in
  for i = base to base + per_kind - 1 do
    sum := !sum + Atomic.get t.counts.(i)
  done;
  !sum

let found_name = function FirstTry -> "First try" | Search -> "Search" | AfterDKY -> "After DKY"

let scope_name = function
  | CSelf -> "self"
  | COther -> "other"
  | COuter -> "outer"
  | CWith -> "WITH"
  | CBuiltin -> "Builtin"

let compl_name = function Complete -> "complete" | Incomplete -> "incomplete"

(* All populated rows for one identifier kind, in the paper's row order. *)
let rows t ~kind =
  let order =
    [
      (FirstTry, CSelf); (FirstTry, COther); (Search, COuter); (AfterDKY, COuter);
      (AfterDKY, COther); (AfterDKY, CSelf); (FirstTry, CWith); (FirstTry, CBuiltin);
      (Search, CSelf); (Search, COther); (Search, CWith); (Search, CBuiltin);
      (FirstTry, COuter);
    ]
  in
  List.concat_map
    (fun (found, scope) ->
      List.filter_map
        (fun compl ->
          let n = get t ~kind ~found ~scope ~compl in
          if n > 0 then Some (found, scope, compl, n) else None)
        [ Incomplete; Complete ])
    order
