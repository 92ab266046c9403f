(* Sharding definition-module closures across farm nodes, and the
   exactly-once bookkeeping the coordinator runs the farm with.

   Placement is either content-hashed (stable across runs and node
   counts modulo N: a module name always lands on the same node for a
   given N) or size-balanced (longest-processing-time greedy over
   source bytes, so one giant interface does not serialize a node
   behind it).

   The tracker owns the only mutable task state: a closure is Pending
   (queued on exactly one node), Running (claimed by exactly one node)
   or Done.  [next] is the single claim point — it atomically moves
   Pending to Running, whether the claimant owns the queue or steals
   from a peer — and [complete] only accepts the claim holder, so a
   stale completion from a crashed node can never finish a task twice.
   [reshard] re-queues a dead node's Pending and Running closures on
   the survivors.  These are the invariants test_farm.ml's qcheck
   property drives with random claim/complete/crash interleavings. *)

type policy = Hash | Size

let policy_to_string = function Hash -> "hash" | Size -> "size"

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "hash" -> Some Hash
  | "size" -> Some Size
  | _ -> None

(* FNV-1a over the module name: stable across processes (unlike
   [Hashtbl.hash], which may change between compiler versions — the
   same-seed determinism gate compares runs byte for byte). *)
let stable_hash name =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff) name;
  !h

(* [(iface, bytes)] -> [(iface, node)], input order preserved. *)
let assign policy ~nodes ifaces =
  match policy with
  | Hash -> List.map (fun (name, _) -> (name, stable_hash name mod nodes)) ifaces
  | Size ->
      let load = Array.make nodes 0 in
      let lightest () =
        let best = ref 0 in
        for n = 1 to nodes - 1 do
          if load.(n) < load.(!best) then best := n
        done;
        !best
      in
      (* biggest first onto the lightest node; then restore input order *)
      List.stable_sort (fun (_, a) (_, b) -> compare b a) ifaces
      |> List.map (fun (name, bytes) ->
             let n = lightest () in
             load.(n) <- load.(n) + bytes;
             (name, n))
      |> fun placed -> List.map (fun (name, _) -> (name, List.assoc name placed)) ifaces

(* ------------------------------------------------------------------ *)
(* The exactly-once tracker *)

type state = Pending | Running of int | Done of int

type tracker = {
  nodes : int;
  topo : string array; (* closures, dependency order *)
  index : (string, int) Hashtbl.t;
  deps : int list array; (* direct imports, as topo indices *)
  state : state array;
  queues : int list ref array; (* per node: pending topo indices, ascending *)
}

let create ~nodes ~assignment ~topo ~deps =
  let topo = Array.of_list topo in
  let index = Hashtbl.create (Array.length topo) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) topo;
  let dep_idx =
    Array.map
      (fun name -> List.filter_map (fun d -> Hashtbl.find_opt index d) (deps name))
      topo
  in
  let queues = Array.init nodes (fun _ -> ref []) in
  List.iter
    (fun (name, node) ->
      match Hashtbl.find_opt index name with
      | Some i -> queues.(node) := i :: !(queues.(node))
      | None -> invalid_arg ("Shard.create: assigned unknown closure " ^ name))
    assignment;
  Array.iter (fun q -> q := List.sort compare !q) queues;
  { nodes; topo; index; deps = dep_idx; state = Array.make (Array.length topo) Pending; queues }

let n_tasks t = Array.length t.topo
let name_of t i = t.topo.(i)

let ready t i = List.for_all (fun d -> match t.state.(d) with Done _ -> true | _ -> false) t.deps.(i)

let pending_count t node = List.length !(t.queues.(node))

let all_done t =
  Array.for_all (fun s -> match s with Done _ -> true | _ -> false) t.state

let remaining t =
  let n = ref 0 in
  Array.iter (fun s -> match s with Done _ -> () | _ -> incr n) t.state;
  !n

(* Claim the next runnable closure for [node]: its own queue front-most
   ready task first; with [steal], the back-most ready task of the
   fullest stealable peer.  The claim itself is the Pending -> Running
   transition. *)
let next t ~node ~steal ~may_steal_from =
  let claim i =
    assert (t.state.(i) = Pending);
    t.state.(i) <- Running node
  in
  let take_ready q ~from_back =
    let candidates = List.filter (fun i -> ready t i) !q in
    match (candidates, from_back) with
    | [], _ -> None
    | c, false -> Some (List.hd c)
    | c, true -> Some (List.nth c (List.length c - 1))
  in
  let own = t.queues.(node) in
  match take_ready own ~from_back:false with
  | Some i ->
      own := List.filter (fun j -> j <> i) !own;
      claim i;
      Some (`Own (t.topo.(i)))
  | None when steal ->
      let victim = ref (-1) in
      for v = 0 to t.nodes - 1 do
        if
          v <> node
          && may_steal_from v
          && pending_count t v > 0
          && (!victim < 0 || pending_count t v > pending_count t !victim)
        then victim := v
      done;
      if !victim < 0 then None
      else
        let q = t.queues.(!victim) in
        (match take_ready q ~from_back:true with
        | None -> None
        | Some i ->
            q := List.filter (fun j -> j <> i) !q;
            claim i;
            Some (`Stolen (t.topo.(i), !victim)))
  | None -> None

(* Only the claim holder completes; a stale completion (the claim moved
   on after a crash re-shard) is refused. *)
let complete t ~node iface =
  match Hashtbl.find_opt t.index iface with
  | None -> false
  | Some i -> (
      match t.state.(i) with
      | Running n when n = node ->
          t.state.(i) <- Done node;
          true
      | _ -> false)

let doer t iface =
  match Hashtbl.find_opt t.index iface with
  | None -> None
  | Some i -> ( match t.state.(i) with Done n -> Some n | _ -> None)

(* A node died: revert its Running claims, collect them with its queued
   Pending closures, and re-queue everything round-robin on the
   survivors.  Returns the moves (closure, new node), topo order. *)
let reshard t ~dead ~survivors =
  if survivors = [] then invalid_arg "Shard.reshard: no survivors";
  let orphans = ref !(t.queues.(dead)) in
  t.queues.(dead) := [];
  Array.iteri (fun i s -> if s = Running dead then orphans := i :: !orphans) t.state;
  let orphans = List.sort compare !orphans in
  let k = ref 0 in
  List.map
    (fun i ->
      let node = List.nth survivors (!k mod List.length survivors) in
      incr k;
      t.state.(i) <- Pending;
      t.queues.(node) := List.sort compare (i :: !(t.queues.(node)));
      (t.topo.(i), node))
    orphans
