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

type t = {
  mu : Mutex.t;
  counts : (kind * found_when * scope_class * completeness, int) Hashtbl.t;
  mutable never_simple : int;
  mutable never_qualified : int;
  mutable dky_blocks : int; (* lookups that incurred a DKY wait *)
  mutable duplicate_searches : int; (* skeptical re-searches after a wait *)
  mutable total_probes : int; (* scope tables probed *)
  uses : (string, (string, unit) Hashtbl.t) Hashtbl.t;
      (* imported module -> exported names actually looked up there: the
         used-slice set fine-grained invalidation keys on *)
}

let create () =
  {
    mu = Mutex.create ();
    counts = Hashtbl.create 64;
    never_simple = 0;
    never_qualified = 0;
    dky_blocks = 0;
    duplicate_searches = 0;
    total_probes = 0;
    uses = Hashtbl.create 16;
  }

let lock t = Mutex.lock t.mu
let unlock t = Mutex.unlock t.mu

let record t ~kind ~found ~scope ~compl =
  lock t;
  let key = (kind, found, scope, compl) in
  Hashtbl.replace t.counts key (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts key));
  unlock t

let record_never t ~kind =
  lock t;
  (match kind with
  | Simple -> t.never_simple <- t.never_simple + 1
  | Qualified -> t.never_qualified <- t.never_qualified + 1);
  unlock t

let record_dky t =
  lock t;
  t.dky_blocks <- t.dky_blocks + 1;
  unlock t

let record_duplicate t =
  lock t;
  t.duplicate_searches <- t.duplicate_searches + 1;
  unlock t

let record_probe t =
  lock t;
  t.total_probes <- t.total_probes + 1;
  unlock t

let record_use t ~import ~name =
  lock t;
  (match Hashtbl.find_opt t.uses import with
  | Some set -> Hashtbl.replace set name ()
  | None ->
      let set = Hashtbl.create 8 in
      Hashtbl.replace set name ();
      Hashtbl.replace t.uses import set);
  unlock t

let used_slices t =
  lock t;
  let r =
    Hashtbl.fold
      (fun m set acc ->
        let names = Hashtbl.fold (fun n () ns -> n :: ns) set [] in
        (m, List.sort compare names) :: acc)
      t.uses []
  in
  unlock t;
  List.sort compare r


let merge ~into src =
  lock src;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) src.counts [] in
  let never_s = src.never_simple and never_q = src.never_qualified and dky = src.dky_blocks in
  let dup = src.duplicate_searches and probes = src.total_probes in
  let uses =
    Hashtbl.fold
      (fun m set acc -> (m, Hashtbl.fold (fun n () ns -> n :: ns) set []) :: acc)
      src.uses []
  in
  unlock src;
  lock into;
  List.iter
    (fun (m, names) ->
      let set =
        match Hashtbl.find_opt into.uses m with
        | Some s -> s
        | None ->
            let s = Hashtbl.create 8 in
            Hashtbl.replace into.uses m s;
            s
      in
      List.iter (fun n -> Hashtbl.replace set n ()) names)
    uses;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace into.counts k (v + Option.value ~default:0 (Hashtbl.find_opt into.counts k)))
    entries;
  into.never_simple <- into.never_simple + never_s;
  into.never_qualified <- into.never_qualified + never_q;
  into.dky_blocks <- into.dky_blocks + dky;
  into.duplicate_searches <- into.duplicate_searches + dup;
  into.total_probes <- into.total_probes + probes;
  unlock into

let get t ~kind ~found ~scope ~compl =
  Option.value ~default:0 (Hashtbl.find_opt t.counts (kind, found, scope, compl))

let never t ~kind = match kind with Simple -> t.never_simple | Qualified -> t.never_qualified
let dky_blocks t = t.dky_blocks
let duplicate_searches t = t.duplicate_searches
let total_probes t = t.total_probes

let total t ~kind =
  Hashtbl.fold (fun (k, _, _, _) v acc -> if k = kind then acc + v else acc) t.counts 0
  + never t ~kind

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
