(* The sharded build farm: an outer discrete-event simulation of N
   compile nodes over the single-machine DES.

   Same composition trick as the compile server: the farm's event loop
   runs in virtual seconds, and every piece of real compilation is an
   inner [Driver.compile], in its own observation context, whose
   simulated [end_seconds] becomes the farm-level service time.  A node
   builds one sharded interface closure at a time, with its per-node
   processors live *inside* that task — so 2 nodes x 4 procs and 1 node
   x 8 procs spend the same processor-seconds, and the difference the
   benchmark measures is pure distribution overhead: artifact shipping,
   stealing, and failure recovery.

   The coordinator's agenda interleaves four event kinds — node-idle
   dispatch, task completion, heartbeats, death detection — plus
   scheduled emission notes for RPC lifecycle and span records whose
   virtual times are computed ([Remote.fetch]'s planned outcome, a
   task's fetch and compile spans) before they are reached.  All
   emission happens at agenda-pop time, which is what keeps the
   captured Evlog time-monotone across interleaved nodes.  The agenda
   drains until the last closure completes (to empty only on total
   loss), and the assembly starts then.

   Failure model.  Nodes crash at heartbeats ([Fault.Node_crash]); the
   coordinator declares a node dead after [Costs.farm_miss_beats]
   missed beats and re-shards its unfinished closures onto survivors.
   A crash bumps the node's generation, so an in-flight completion
   from a previous life is ignored.  Gray failure ([Fault.Node_slow])
   multiplies a node's compile times and makes its artifact serving
   slow enough to trip RPC timeouts — the hedge path's reason to
   exist.  A partition splits even from odd nodes for
   [Costs.partition_seconds] on the artifact data plane only (it heals
   when that window ends: no event marks it);
   heartbeats model the coordinator's control network and keep
   flowing, a deliberate no-split-brain simplification documented in
   DESIGN.md.  Nothing that digest-verifies is ever invalidated: the
   remote protocol is content-addressed, and any fetch that fails all
   retries and the hedge simply falls back to compiling the interface
   locally — so every recovery path converges to the same artifacts,
   and the sequential oracle ([verify]) is the gate that proves it.
   When every node dies, the farm degrades to a one-shot sequential
   compile of the whole program. *)

open Mcc_core
module Evlog = Mcc_obs.Evlog
module Trace_ctx = Mcc_obs.Trace_ctx
module Dtrace = Mcc_obs.Dtrace
module Fault = Mcc_sched.Fault
module Costs = Mcc_sched.Costs
module Des_engine = Mcc_sched.Des_engine
module Observation = Mcc_check.Observation
module Heap = Mcc_util.Heap

type config = {
  compile : Driver.config; (* per-node compile config; procs = procs per node *)
  nodes : int;
  net : Netsim.params;
  shard : Shard.policy;
  steal : bool;
  faults : Fault.spec list;
  fault_seed : int;
  seed : int; (* network jitter/loss stream *)
}

let default_config =
  {
    compile = Driver.default_config;
    nodes = 3;
    net = Netsim.lan;
    shard = Shard.Hash;
    steal = true;
    faults = [];
    fault_seed = 0;
    seed = 0;
  }

type node_stats = {
  ns_id : int;
  ns_alive : bool;
  ns_slow : bool;
  ns_tasks : int;
  ns_stolen : int;
  ns_busy_seconds : float;
  ns_fetches : int;
  ns_serves : int;
}

type report = {
  f_nodes : int;
  f_procs : int;
  f_net : string;
  f_shard : string;
  f_tasks : int; (* sharded interface closures *)
  f_makespan : float; (* virtual seconds to the final linked program *)
  f_fetches : int; (* remote fetch operations dispatched *)
  f_serves : int; (* fetches answered (by primary or replica) *)
  f_local_fallbacks : int; (* fetches that failed out and recompiled locally *)
  f_rpc_retries : int;
  f_rpc_drops : int;
  f_hedges : int;
  f_hedge_wins : int;
  f_steals : int;
  f_reshards : int;
  f_crashes : int;
  f_detects : int;
  f_slow_nodes : int;
  f_partitions : int;
  f_replicas : int;
  f_seq_fallback : bool;
  f_ok : bool;
  f_obs : Observation.t;
  f_node_stats : node_stats list;
  f_events : Evlog.record array;
  f_subs : Dtrace.sub list; (* nested compile captures; empty unless [trace] *)
  f_trace : string; (* the run's trace id ("" unless [trace]) *)
}

(* agenda events; [Note] is an Evlog emission whose virtual time was
   computed ahead of reaching it, guarded by the planning node's
   generation: a record scheduled for work a crash abandons must not
   fire *)
type ev =
  | Free of int
  | Task_done of { node : int; gen : int; iface : string; service : float }
  | Beat of int
  | Detect of int
  | Note of { node : int; gen : int; kind : Evlog.kind }

(* The main module's interface closure in dependency order, the members
   of an import cycle in name order: a cycle member waits only for
   members earlier in this order and compiles the rest cold within its
   own probe. *)
let closure_topo g store =
  let order = ref [] in
  Build_cache.condense ~node:(Build_cache.def_imports g) ~edges:Fun.id ~settled:(fun _ -> false)
    (fun ms -> order := List.rev_append (List.filter (Source_store.has_def store) (List.map fst ms)) !order)
    (Option.get (Build_cache.impl_imports g (Source_store.main_name store)));
  List.rev !order

(* One farm run in the installed context: span ids count from its
   start, and the report's [f_events] is left to [run]. *)
let simulate ~trace cfg store =
  let trace_id =
    if trace then
      Trace_ctx.trace_id ~domain:"farm" ~seed:cfg.seed ~key:(Source_store.main_name store)
    else ""
  in
  let root_span = if trace then Trace_ctx.fresh () else -1 in
  let subs = ref [] (* reversed Dtrace.sub list *) in
  let open_task : (int, int) Hashtbl.t = Hashtbl.create 8 (* node -> open task span *) in
  let net = Netsim.create ~seed:cfg.seed cfg.net in
  let nodes = Array.init cfg.nodes Node.create in
  (* per node, the graph its compiles read, over its own cache and
     sharing the records and fingerprints of node 0's, derived once per
     run; node 0's gives the run's closure order and probe fingerprints *)
  let g = Build_cache.graph nodes.(0).Node.cache store in
  let graphs =
    Array.mapi (fun i n -> if i = 0 then g else Build_cache.graph_over n.Node.cache g) nodes
  in
  let topo = closure_topo g store in
  let rank = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.replace rank name i) topo;
  (* forward deps only: back edges of import cycles are cut here *)
  let direct name =
    List.filter
      (fun d ->
        match (Hashtbl.find_opt rank d, Hashtbl.find_opt rank name) with
        | Some rd, Some rn -> rd < rn
        | _ -> false)
      (Build_cache.def_imports g name)
  in
  (* transitive deps per closure, topo-sorted *)
  let trans = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let set = Hashtbl.create 8 in
      List.iter
        (fun d ->
          Hashtbl.replace set d ();
          List.iter (fun dd -> Hashtbl.replace set dd ()) (Hashtbl.find trans d))
        (direct name);
      let lst =
        Hashtbl.fold (fun k () acc -> k :: acc) set []
        |> List.sort (fun a b -> compare (Hashtbl.find rank a) (Hashtbl.find rank b))
      in
      Hashtbl.replace trans name lst)
    topo;
  let sizes =
    List.map
      (fun d -> (d, String.length (Option.value ~default:"" (Source_store.def_src store d))))
      topo
  in
  let assignment = Shard.assign cfg.shard ~nodes:cfg.nodes sizes in
  let tracker = Shard.create ~nodes:cfg.nodes ~assignment ~topo ~deps:direct in
  (* counters *)
  let fetches = ref 0 and serves = ref 0 and local_fallbacks = ref 0 in
  let rpc_retries = ref 0 and rpc_drops = ref 0 in
  let hedges = ref 0 and hedge_wins = ref 0 in
  let steals = ref 0 and reshards = ref 0 in
  let crashes = ref 0 and detects = ref 0 in
  let partitions = ref 0 and replicas = ref 0 in
  let replica_of = Hashtbl.create 16 in
  let partition_until = ref neg_infinity in
  let partition_active t = t < !partition_until in
  let agenda = Heap.create (Free 0) in
  let now = ref 0.0 in
  let emit_at seconds kind =
    if Evlog.enabled () then begin
      Evlog.set_task (-1);
      Evlog.set_time (seconds /. Costs.seconds_per_unit);
      Evlog.emit kind
    end
  in
  let finished () = Shard.all_done tracker in
  let alive_ids () =
    Array.to_list nodes
    |> List.filter_map (fun (n : Node.t) -> if n.Node.alive then Some n.Node.id else None)
  in
  (* Data-plane reachability from [from] at time [t]: alive, and on the
     same side of any active partition.  The control plane (heartbeats,
     steal decisions, re-sharding) is coordinator-mediated and ignores
     partitions — a no-split-brain simplification. *)
  let reachable ~at ~from v =
    nodes.(v).Node.alive && ((not (partition_active at)) || v mod 2 = from mod 2)
  in
  let compile_config = cfg.compile in
  (* Fetch every interface in [needs] (topo order) missing from [n]'s
     cache; [note] schedules/emits records at absolute times.  With
     [parent], each dep gets a "fetch" span under it (plus "rpc"
     annotation legs reconstructed from the [Remote] outcome); per-dep
     spans are back to back, so they tile [at, at + elapsed] exactly.
     Returns elapsed virtual seconds. *)
  let fetch_deps (n : Node.t) ~at ~note ?parent needs =
    List.fold_left
      (fun elapsed iface ->
        let t0 = at +. elapsed in
        (* open a fetch span now, close it once the outcome is known;
           legs are emitted between the two *)
        let fetch_sp =
          Option.map
            (fun parent ->
              let fsp = Trace_ctx.fresh () in
              note t0
                (Evlog.Span_start
                   {
                     span = fsp;
                     parent;
                     trace = trace_id;
                     name = "fetch:" ^ iface;
                     kind = "fetch";
                     node = n.Node.id;
                   });
              fsp)
            parent
        in
        let fetch_span t1 status =
          Option.iter (fun fsp -> note t1 (Evlog.Span_end { span = fsp; status })) fetch_sp
        in
        (* rpc attempt/hedge legs under [fsp], from the outcome's event
           offsets: an attempt leg closes at its timeout, the winner at
           serve time ("ok"), a raced loser "late", a hedge that never
           answered closes at the fetch's end ("timeout").  Legs live
           inside the fetch, as the outcome records nothing past its
           end *)
        let rpc_legs fsp ~base (outcome : Remote.outcome) =
          let open_legs : (int, int) Hashtbl.t = Hashtbl.create 4 in
          (* key: attempt number, 0 = hedge *)
          let close key at status =
            match Hashtbl.find_opt open_legs key with
            | Some sp ->
                Hashtbl.remove open_legs key;
                note at (Evlog.Span_end { span = sp; status })
            | None -> ()
          in
          let open_leg key at name =
            let sp = Trace_ctx.fresh () in
            Hashtbl.replace open_legs key sp;
            note at
              (Evlog.Span_start
                 { span = sp; parent = fsp; trace = trace_id; name; kind = "rpc"; node = n.Node.id })
          in
          List.iter
            (fun (dt, kind) ->
              let at = base +. dt in
              match kind with
              | Evlog.Rpc_fetch { peer; attempt; _ } ->
                  open_leg attempt at (Printf.sprintf "rpc#%d->node%d" attempt peer)
              | Evlog.Rpc_timeout { attempt; _ } -> close attempt at "timeout"
              | Evlog.Rpc_hedge { replica; _ } ->
                  open_leg 0 at (Printf.sprintf "hedge->node%d" replica)
              | Evlog.Rpc_serve _ ->
                  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) open_legs [] in
                  List.iter
                    (fun k ->
                      let won_by_hedge = outcome.Remote.hedge_won in
                      let status =
                        if (k = 0) = won_by_hedge then "ok" else "late"
                      in
                      close k at status)
                    (List.sort compare keys)
              | _ -> ())
            outcome.Remote.events;
          let keys = Hashtbl.fold (fun k _ acc -> k :: acc) open_legs [] in
          List.iter (fun k -> close k (base +. outcome.Remote.elapsed) "timeout") (List.sort compare keys)
        in
        let fp = fst (Build_cache.fingerprint g iface) in
        let units = Build_cache.closure_units g ~seen:(Hashtbl.create 8) iface in
        let overhead = Costs.to_seconds (float_of_int (units + Costs.cache_probe)) in
        match Build_cache.find_interface n.Node.cache ~fp with
        | Some _ ->
            (* already local (built, fetched, or healed) *)
            fetch_span (t0 +. overhead) "hit";
            elapsed +. overhead
        | None -> (
            let fallback () =
              (* nobody can serve it: the probe compile builds it cold *)
              incr local_fallbacks;
              fetch_span (t0 +. overhead) "miss";
              elapsed +. overhead
            in
            match Shard.doer tracker iface with
            | None -> fallback ()
            | Some server_id when server_id = n.Node.id -> fallback ()
            | Some server_id -> (
                let server = nodes.(server_id) in
                match Build_cache.latest server.Node.cache iface with
                | None -> fallback ()
                | Some entry ->
                    let bytes = Build_cache.stored_bytes entry in
                    let replica =
                      match Hashtbl.find_opt replica_of iface with
                      | Some r
                        when r <> server_id && r <> n.Node.id
                             && reachable ~at:t0 ~from:n.Node.id r ->
                          Some r
                      | _ -> None
                    in
                    let primary_extra =
                      (* a gray-failed server answers too late: every
                         request to it times out *)
                      if server.Node.slow then
                        Costs.node_slow_factor *. Netsim.timeout cfg.net ~bytes
                      else 0.0
                    in
                    let outcome =
                      Remote.fetch ~net ~requester:n.Node.id ~primary:server_id ?replica
                        ~primary_extra
                        ~reachable:(reachable ~at:t0 ~from:n.Node.id)
                        ~iface ~bytes ()
                    in
                    incr fetches;
                    n.Node.fetches <- n.Node.fetches + 1;
                    rpc_retries := !rpc_retries + outcome.Remote.retries;
                    rpc_drops := !rpc_drops + outcome.Remote.drops;
                    if outcome.Remote.hedged then incr hedges;
                    if outcome.Remote.hedge_won then incr hedge_wins;
                    List.iter (fun (dt, kind) -> note (t0 +. overhead +. dt) kind)
                      outcome.Remote.events;
                    Option.iter (fun fsp -> rpc_legs fsp ~base:(t0 +. overhead) outcome) fetch_sp;
                    fetch_span
                      (t0 +. overhead +. outcome.Remote.elapsed)
                      (if outcome.Remote.ok then "served" else "fallback");
                    if outcome.Remote.ok then begin
                      incr serves;
                      (match outcome.Remote.served_by with
                      | Some s -> nodes.(s).Node.serves <- nodes.(s).Node.serves + 1
                      | None -> ());
                      (* content-addressed: the replica's copy is the
                         same bytes, so install the entry in hand *)
                      Build_cache.copy_interface entry ~into:n.Node.cache
                    end
                    else incr local_fallbacks;
                    elapsed +. overhead +. outcome.Remote.elapsed)))
      0.0 needs
  in
  (* close node [i]'s open task span (crash path: the scheduled child
     ends are generation-guarded, so they die with the node and the
     children close as "lost" at assembly time) *)
  let close_task i status =
    match Hashtbl.find_opt open_task i with
    | Some tsp ->
        Hashtbl.remove open_task i;
        emit_at !now (Evlog.Span_end { span = tsp; status })
    | None -> ()
  in
  let handle = function
    | Note { node; gen; kind } ->
        if nodes.(node).Node.alive && gen = nodes.(node).Node.gen then emit_at !now kind
    | Beat i ->
        let n = nodes.(i) in
        if n.Node.alive && not (finished ()) then
          if Fault.fires Fault.Node_crash (Node.name n) then begin
            Node.crash n;
            incr crashes;
            emit_at !now (Evlog.Node_dead { node = i });
            close_task i "crashed";
            Heap.push agenda
              (!now +. (float_of_int Costs.farm_miss_beats *. Costs.farm_hb_seconds))
              (Detect i)
          end
          else begin
            n.Node.last_beat <- !now;
            if (not (partition_active !now)) && Fault.fires Fault.Partition "net" then begin
              partition_until := !now +. Costs.partition_seconds;
              incr partitions
            end;
            Heap.push agenda (!now +. Costs.farm_hb_seconds) (Beat i)
          end
    | Detect i ->
        let n = nodes.(i) in
        if not n.Node.alive then begin
          incr detects;
          match alive_ids () with
          | [] -> () (* total loss: the drain ends and we fall back sequentially *)
          | survivors ->
              let moves = Shard.reshard tracker ~dead:i ~survivors in
              List.iter
                (fun (iface, nd) ->
                  incr reshards;
                  emit_at !now (Evlog.Farm_reshard { node = nd; iface }))
                moves;
              if moves <> [] then
                List.iter
                  (fun id ->
                    if nodes.(id).Node.busy_until <= !now then Heap.push agenda !now (Free id))
                  survivors
        end
    | Task_done { node = i; gen; iface; service } ->
        let n = nodes.(i) in
        if n.Node.alive && gen = n.Node.gen then close_task i "ok";
        if n.Node.alive && gen = n.Node.gen && Shard.complete tracker ~node:i iface then begin
          n.Node.tasks_run <- n.Node.tasks_run + 1;
          n.Node.busy_seconds <- n.Node.busy_seconds +. service;
          n.Node.busy_until <- !now;
          emit_at !now (Evlog.Farm_task_done { node = i; iface });
          (* push the fresh artifact to the next alive node so a fetch
             can hedge there if this node later dies or grays out *)
          let rec pick k =
            if k >= cfg.nodes then None
            else
              let r = nodes.((i + k) mod cfg.nodes) in
              if r.Node.id <> i && r.Node.alive then Some r else pick (k + 1)
          in
          (match pick 1 with
          | Some r when reachable ~at:!now ~from:i r.Node.id -> (
              match Build_cache.latest n.Node.cache iface with
              | Some entry ->
                  Build_cache.copy_interface entry ~into:r.Node.cache;
                  Hashtbl.replace replica_of iface r.Node.id;
                  incr replicas
              | None -> ())
          | _ -> ());
          Array.iter
            (fun (m : Node.t) ->
              if m.Node.alive && m.Node.busy_until <= !now then
                Heap.push agenda !now (Free m.Node.id))
            nodes
        end
    | Free i -> (
        let n = nodes.(i) in
        if n.Node.alive && n.Node.busy_until <= !now && not (finished ()) then
          match
            Shard.next tracker ~node:i ~steal:cfg.steal
              ~may_steal_from:(fun v -> nodes.(v).Node.alive)
          with
          | None -> ()
          | Some claim ->
              let iface =
                match claim with
                | `Own f -> f
                | `Stolen (f, victim) ->
                    n.Node.tasks_stolen <- n.Node.tasks_stolen + 1;
                    incr steals;
                    emit_at !now (Evlog.Farm_steal { node = i; victim; iface = f });
                    f
              in
              let note at kind = Heap.push agenda at (Note { node = i; gen = n.Node.gen; kind }) in
              let tsp =
                if trace then begin
                  let sp = Trace_ctx.fresh () in
                  emit_at !now
                    (Evlog.Span_start
                       {
                         span = sp;
                         parent = root_span;
                         trace = trace_id;
                         name = "task:" ^ iface;
                         kind = "task";
                         node = i;
                       });
                  Hashtbl.replace open_task i sp;
                  Some sp
                end
                else None
              in
              let fetch_elapsed =
                fetch_deps n ~at:!now ~note ?parent:tsp (Hashtbl.find trans iface)
              in
              (* a single-import probe compiles [iface]'s closure into the
                 node's cache (hits for everything already fetched),
                 without touching the real main module *)
              let probe =
                Driver.compile ~config:compile_config ~capture:trace ~cache:graphs.(i)
                  (Source_store.probe store ~prefix:"MccShard" [ iface ])
              in
              let slowf = if n.Node.slow then Costs.node_slow_factor else 1.0 in
              let service =
                fetch_elapsed +. (probe.Driver.sim.Des_engine.end_seconds *. slowf)
              in
              (match tsp with
              | Some sp ->
                  let csp = Trace_ctx.fresh () in
                  note (!now +. fetch_elapsed)
                    (Evlog.Span_start
                       {
                         span = csp;
                         parent = sp;
                         trace = trace_id;
                         name = "compile:" ^ iface;
                         kind = "compute";
                         node = i;
                       });
                  note (!now +. service) (Evlog.Span_end { span = csp; status = "ok" });
                  if Array.length probe.Driver.log > 0 then
                    subs :=
                      {
                        Dtrace.sub_owner = csp;
                        sub_t0 = (!now +. fetch_elapsed) /. Costs.seconds_per_unit;
                        sub_scale = slowf;
                        sub_log = probe.Driver.log;
                      }
                      :: !subs
              | None -> ());
              n.Node.busy_until <- !now +. service;
              Heap.push agenda (!now +. service)
                (Task_done { node = i; gen = n.Node.gen; iface; service }))
  in
  let run_farm () =
    (* gray failures are decided at boot: a slow node is slow for life *)
    Array.iter
      (fun (n : Node.t) -> if Fault.fires Fault.Node_slow (Node.name n) then n.Node.slow <- true)
      nodes;
    if trace then
      emit_at 0.0
        (Evlog.Span_start
           { span = root_span; parent = -1; trace = trace_id; name = "farm"; kind = "farm"; node = -1 });
    List.iter
      (fun (iface, node) -> emit_at 0.0 (Evlog.Farm_assign { node; iface }))
      assignment;
    Array.iter
      (fun (n : Node.t) ->
        Heap.push agenda 0.0 (Free n.Node.id);
        Heap.push agenda Costs.farm_hb_seconds (Beat n.Node.id))
      nodes;
    (* the drain ends as the last closure completes, so no heartbeat
       tick left on the agenda delays the assembly; only total loss,
       where nothing completes, drains the agenda dry.  No note of a
       live node is left then: a task's notes fall no later than its
       completion (a fetch records nothing past its end) and are pushed
       before it *)
    let rec drain () =
      if not (finished ()) then
        match Heap.pop agenda with
        | None -> ()
        | Some (t, e) ->
            now := t;
            handle e;
            drain ()
    in
    drain ();
    (* assembly: one surviving node fetches whatever of the closure it
       lacks and compiles the real main module against its warm cache;
       with no survivors (or nothing converged), compile sequentially *)
    let seq_fallback = not (Shard.all_done tracker) in
    let home =
      let candidates = List.filter (fun id -> not nodes.(id).Node.slow) (alive_ids ()) in
      match (candidates, alive_ids ()) with
      | id :: _, _ -> Some nodes.(id)
      | [], id :: _ -> Some nodes.(id)
      | [], [] -> None
    in
    let result =
      match (seq_fallback, home) with
      | true, _ | _, None ->
          let seq = Seq_driver.compile store in
          let makespan = !now +. Costs.to_seconds seq.Seq_driver.cost_units in
          if trace then begin
            (* one assembly span tiled by a single compute: the whole
               program recompiled sequentially, off-farm *)
            let asp = Trace_ctx.fresh () in
            emit_at !now
              (Evlog.Span_start
                 {
                   span = asp;
                   parent = root_span;
                   trace = trace_id;
                   name = "assembly";
                   kind = "assembly";
                   node = -1;
                 });
            let csp = Trace_ctx.fresh () in
            emit_at !now
              (Evlog.Span_start
                 {
                   span = csp;
                   parent = asp;
                   trace = trace_id;
                   name = "compile:" ^ Source_store.main_name store;
                   kind = "compute";
                   node = -1;
                 });
            emit_at makespan (Evlog.Span_end { span = csp; status = "ok" });
            emit_at makespan (Evlog.Span_end { span = asp; status = "fallback" })
          end;
          (true, seq.Seq_driver.ok, Observation.of_seq ~run:false seq, makespan)
      | false, Some home ->
          (* there is no agenda left to order scheduled emissions, so
             buffer everything the assembly phase wants to emit and
             flush it time-sorted (stable: planning order breaks ties) *)
          let pending = ref [] in
          let buffer at kind = pending := (at, kind) :: !pending in
          let flush () =
            List.iter
              (fun (at, kind) -> emit_at at kind)
              (List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !pending));
            pending := []
          in
          let asp =
            if trace then begin
              let sp = Trace_ctx.fresh () in
              emit_at !now
                (Evlog.Span_start
                   {
                     span = sp;
                     parent = root_span;
                     trace = trace_id;
                     name = "assembly";
                     kind = "assembly";
                     node = home.Node.id;
                   });
              Some sp
            end
            else None
          in
          let fetch_elapsed = fetch_deps home ~at:!now ~note:buffer ?parent:asp topo in
          let final =
            Driver.compile ~config:compile_config ~capture:trace ~cache:graphs.(home.Node.id) store
          in
          let slowf = if home.Node.slow then Costs.node_slow_factor else 1.0 in
          let makespan =
            !now +. fetch_elapsed +. (final.Driver.sim.Des_engine.end_seconds *. slowf)
          in
          (match asp with
          | Some sp ->
              let csp = Trace_ctx.fresh () in
              buffer (!now +. fetch_elapsed)
                (Evlog.Span_start
                   {
                     span = csp;
                     parent = sp;
                     trace = trace_id;
                     name = "compile:" ^ Source_store.main_name store;
                     kind = "compute";
                     node = home.Node.id;
                   });
              if Array.length final.Driver.log > 0 then
                subs :=
                  {
                    Dtrace.sub_owner = csp;
                    sub_t0 = (!now +. fetch_elapsed) /. Costs.seconds_per_unit;
                    sub_scale = slowf;
                    sub_log = final.Driver.log;
                  }
                  :: !subs;
              buffer makespan (Evlog.Span_end { span = csp; status = "ok" });
              buffer makespan (Evlog.Span_end { span = sp; status = "ok" })
          | None -> ());
          flush ();
          home.Node.busy_seconds <-
            home.Node.busy_seconds +. fetch_elapsed
            +. (final.Driver.sim.Des_engine.end_seconds *. slowf);
          (false, final.Driver.ok, Observation.of_driver ~run:false final, makespan)
    in
    (if trace then
       let sf, _, _, makespan = result in
       emit_at makespan
         (Evlog.Span_end { span = root_span; status = (if sf then "fallback" else "ok") }));
    result
  in
  (* ship the schedule to the simulated cluster the way a real
     coordinator would: what gets armed is what a node deserializes, so
     the wire round trip is on the hot path *)
  let faults =
    if cfg.faults = [] then None
    else Some (Fault.of_bytes (Fault.to_bytes (Fault.plan ~seed:cfg.fault_seed cfg.faults)))
  in
  let seq_fallback, ok, obs, makespan = Evlog.within ?faults run_farm in
  {
    f_nodes = cfg.nodes;
    f_procs = cfg.compile.Driver.procs;
    f_net = Netsim.params_to_string cfg.net;
    f_shard = Shard.policy_to_string cfg.shard;
    f_tasks = Shard.n_tasks tracker;
    f_makespan = makespan;
    f_fetches = !fetches;
    f_serves = !serves;
    f_local_fallbacks = !local_fallbacks;
    f_rpc_retries = !rpc_retries;
    f_rpc_drops = !rpc_drops;
    f_hedges = !hedges;
    f_hedge_wins = !hedge_wins;
    f_steals = !steals;
    f_reshards = !reshards;
    f_crashes = !crashes;
    f_detects = !detects;
    f_slow_nodes =
      Array.fold_left (fun acc (n : Node.t) -> if n.Node.slow then acc + 1 else acc) 0 nodes;
    f_partitions = !partitions;
    f_replicas = !replicas;
    f_seq_fallback = seq_fallback;
    f_ok = ok;
    f_obs = obs;
    f_node_stats =
      Array.to_list nodes
      |> List.map (fun (n : Node.t) ->
             {
               ns_id = n.Node.id;
               ns_alive = n.Node.alive;
               ns_slow = n.Node.slow;
               ns_tasks = n.Node.tasks_run;
               ns_stolen = n.Node.tasks_stolen;
               ns_busy_seconds = n.Node.busy_seconds;
               ns_fetches = n.Node.fetches;
               ns_serves = n.Node.serves;
             });
    f_events = [||];
    f_subs = List.rev !subs;
    f_trace = trace_id;
  }

let run ?(trace = false) cfg store =
  if cfg.compile.Driver.faults <> [] then
    invalid_arg "Farm.run: put the fault plan in the farm config, not the compile config";
  if cfg.nodes < 1 then invalid_arg "Farm.run: need at least one node";
  if trace then
    let r, log = Evlog.capture (fun () -> simulate ~trace cfg store) in
    { r with f_events = log }
  else simulate ~trace cfg store

(* ------------------------------------------------------------------ *)
(* The farm-vs-sequential conformance oracle *)

(* Whatever the farm went through — crashes, re-shards, partitions,
   hedges, total loss — its final program must be observationally
   identical to a one-shot sequential compile of the same source. *)
let verify store report =
  let seq = Seq_driver.compile store in
  let reference = Observation.of_seq ~run:false seq in
  match Observation.first_diff ~reference report.f_obs with
  | None -> Ok ()
  | Some (field, expected, actual) ->
      Error
        (Printf.sprintf "farm output diverged from the sequential oracle: %s: oracle %s, farm %s"
           field expected actual)
