(* The sharded build farm: fault-injected conformance against the
   sequential oracle, the exactly-once tracker property, the fault-plan
   wire format, same-seed determinism, and the happens-before farm
   invariants over a captured node/RPC lifecycle log. *)

open Mcc_farm
module Fault = Mcc_sched.Fault
module Prng = Mcc_util.Prng
module Observation = Mcc_check.Observation
module Hb = Mcc_analysis.Hb
module Evlog = Mcc_obs.Evlog

(* Suite rank 3: a couple of virtual seconds sequential, five definition
   modules — enough closures to shard over three nodes, small enough to
   keep the fault matrix quick. *)
let store = lazy (Mcc_synth.Suite.program 3)

let run ?(trace = false) ?(nodes = 3) ?(faults = "") () =
  let cfg =
    { Farm.default_config with Farm.nodes; faults = Fault.parse_list faults }
  in
  Farm.run ~trace cfg (Lazy.force store)

let check_verify r =
  match Farm.verify (Lazy.force store) r with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- sharding ------------------------------------------------------ *)

let test_assign_policies () =
  let ifaces = List.init 12 (fun i -> (Printf.sprintf "I%02d" i, 100 * (i + 1))) in
  let h = Shard.assign Shard.Hash ~nodes:3 ifaces in
  Alcotest.(check (list string)) "input order preserved" (List.map fst ifaces) (List.map fst h);
  List.iter (fun (_, n) -> Alcotest.(check bool) "node in range" true (n >= 0 && n < 3)) h;
  Alcotest.(check bool) "hash placement is stable" true (h = Shard.assign Shard.Hash ~nodes:3 ifaces);
  let s = Shard.assign Shard.Size ~nodes:3 ifaces in
  let load p =
    List.fold_left
      (fun acc ((_, b), (_, n)) -> if n = p then acc + b else acc)
      0 (List.combine ifaces s)
  in
  let loads = List.init 3 load in
  let mx = List.fold_left max 0 loads and mn = List.fold_left min max_int loads in
  Alcotest.(check bool) "LPT balance within the biggest item" true (mx - mn <= 1200)

(* The exactly-once tracker under arbitrary claim / steal / complete /
   crash+reshard interleavings: no closure completes twice, stale
   completions from crashed claim holders are rejected, and as long as
   one node survives every closure still completes exactly once. *)
let prop_steal_never_duplicates =
  QCheck.Test.make ~name:"tracker: random interleavings never lose or duplicate a closure"
    ~count:120
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (0xfa43 + seed) in
      let nodes = 2 + Prng.int rng 3 in
      let n = 3 + Prng.int rng 14 in
      let names = List.init n (Printf.sprintf "I%02d") in
      (* random DAG: each closure imports a random subset of earlier ones *)
      let deps_tbl = Hashtbl.create 16 in
      List.iteri
        (fun i name ->
          Hashtbl.replace deps_tbl name
            (List.filteri (fun j _ -> j < i && Prng.chance rng 0.35) names))
        names;
      let assignment =
        Shard.assign
          (if Prng.bool rng then Shard.Hash else Shard.Size)
          ~nodes
          (List.map (fun nm -> (nm, 50 + Prng.int rng 400)) names)
      in
      let t = Shard.create ~nodes ~assignment ~topo:names ~deps:(Hashtbl.find deps_tbl) in
      let alive = Array.make nodes true in
      let alive_list () = List.filter (fun i -> alive.(i)) (List.init nodes Fun.id) in
      let done_count = Hashtbl.create 16 in
      let record iface =
        Hashtbl.replace done_count iface (1 + Option.value ~default:0 (Hashtbl.find_opt done_count iface))
      in
      let running = ref [] (* (node, iface) claims not yet completed *) in
      let ok = ref true in
      let claim node =
        match Shard.next t ~node ~steal:true ~may_steal_from:(fun v -> alive.(v)) with
        | Some (`Own iface) | Some (`Stolen (iface, _)) -> running := (node, iface) :: !running
        | None -> ()
      in
      let complete_nth k =
        let node, iface = List.nth !running k in
        running := List.filteri (fun i _ -> i <> k) !running;
        let accepted = Shard.complete t ~node iface in
        if alive.(node) then begin
          if accepted then record iface else ok := false
        end
        else if accepted then ok := false (* stale claim from a crashed node *)
      in
      let steps = ref 0 in
      while (not (Shard.all_done t)) && !steps < 2_000 && !ok do
        incr steps;
        let c = Prng.int rng 100 in
        if c < 8 && List.length (alive_list ()) > 1 then begin
          let dead = Prng.choose rng (alive_list ()) in
          alive.(dead) <- false;
          ignore (Shard.reshard t ~dead ~survivors:(alive_list ()))
        end
        else if c < 55 || !running = [] then claim (Prng.choose rng (alive_list ()))
        else complete_nth (Prng.int rng (List.length !running))
      done;
      (* drive whatever is left to completion on the survivors *)
      let guard = ref 0 in
      while (not (Shard.all_done t)) && !guard < 10_000 && !ok do
        incr guard;
        (match !running with
        | [] -> ()
        | (node, _) :: _ when alive.(node) -> complete_nth 0
        | _ :: _ -> complete_nth 0 (* stale entry; complete_nth checks it *));
        if !running = [] then List.iter claim (alive_list ())
      done;
      if not (Shard.all_done t) then ok := false;
      List.iter
        (fun nm -> if Hashtbl.find_opt done_count nm <> Some 1 then ok := false)
        names;
      !ok)

(* --- the fault-plan wire format ------------------------------------ *)

(* A fixed consult script touching every farm site family plus an inner
   compile site; the plan's observable behaviour is the bool sequence it
   produces over this script. *)
let firing_script () =
  let out = ref [] in
  for _ = 0 to 7 do
    List.iter
      (fun n ->
        out := Fault.fires Fault.Node_crash n :: !out;
        out := Fault.fires Fault.Node_slow n :: !out)
      [ "node0"; "node1"; "node2" ];
    out := Fault.fires Fault.Partition "net" :: !out;
    out := Fault.fires Fault.Msg_drop "node0->node1:I0" :: !out;
    out := Fault.fires Fault.Task_crash ~aux:"parse" "t" :: !out;
    out := Fault.fires Fault.Corrupt_artifact "I0" :: !out
  done;
  List.rev !out

let random_spec rng =
  let kind = Prng.choose rng Fault.all_kinds in
  let at = if Prng.chance rng 0.5 then Some (1 + Prng.int rng 5) else None in
  {
    Fault.kind;
    target =
      (if Prng.chance rng 0.4 then
         Some (Prng.choose rng [ "node0"; "node1"; "node2"; "net"; "I0" ])
       else None);
    at;
    rate = (if at = None && Prng.chance rng 0.6 then Some (10 + Prng.int rng 90) else None);
    permanent = Prng.chance rng 0.25;
  }

let prop_plan_wire_roundtrip =
  QCheck.Test.make ~name:"fault plan: wire round trip replays the identical schedule"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create (0x9147 + seed) in
      let specs = List.init (1 + Prng.int rng 4) (fun _ -> random_spec rng) in
      let plan_seed = Prng.int rng 10_000 in
      let fresh () = Fault.plan ~seed:plan_seed specs in
      let replay p = Mcc_obs.Evlog.within ~faults:p firing_script in
      let reference = replay (fresh ()) in
      (* a pristine plan survives the round trip *)
      let a = replay (Fault.of_bytes (Fault.to_bytes (fresh ()))) in
      (* serializing MID-replay still ships the schedule, not the replay
         cursor: the deserialized plan replays from the beginning *)
      let consumed = fresh () in
      Mcc_obs.Evlog.within ~faults:consumed (fun () ->
          for _ = 1 to 1 + Prng.int rng 30 do
            ignore (Fault.fires Fault.Node_crash "node1")
          done);
      let b = replay (Fault.of_bytes (Fault.to_bytes consumed)) in
      a = reference && b = reference)

(* Damaged or foreign bytes never become a plan: every truncation,
   every single-byte flip out of printable ASCII (xor 0xff) and
   assorted garbage raise Invalid_argument. *)
let test_plan_wire_rejects_damage () =
  let bytes =
    Fault.to_bytes
      (Fault.plan ~seed:42 (Fault.parse_list "node-crash:node1@1,msg-drop%30!,task-crash"))
  in
  Alcotest.(check string) "round trip is byte-stable" bytes
    (Fault.to_bytes (Fault.of_bytes bytes));
  let rejects what s =
    match Fault.of_bytes s with
    | _ -> Alcotest.failf "%s was accepted: %S" what s
    | exception Invalid_argument _ -> ()
  in
  for n = 0 to String.length bytes - 1 do
    rejects "a truncated copy" (String.sub bytes 0 n)
  done;
  String.iteri
    (fun i c ->
      let b = Bytes.of_string bytes in
      Bytes.set b i (Char.chr (Char.code c lxor 0xff));
      rejects "a byte-flipped copy" (Bytes.to_string b))
    bytes;
  let rng = Prng.create 7 in
  List.iter (rejects "garbage")
    ([
       "";
       "\n\n\n";
       "mcc-fault-plan-v1\n0\n\n";
       "mcc-fault-plan-v2\n007\n\n";
       "mcc-fault-plan-v2\n1\nno-such-fault@1\n";
       bytes ^ bytes;
       Marshal.to_string ("mcc-fault-plan-v1", 1, [||]) [];
     ]
    @ List.init 20 (fun _ -> String.init (Prng.int rng 64) (fun _ -> Char.chr (Prng.int rng 256))))

(* --- the fetch planner ---------------------------------------------- *)

(* A primary that never answers in time and a healthy replica: the
   hedge answers first, and no retry to the primary is planned after it. *)
let test_hedge_stops_retries () =
  let bytes = 4096 in
  let o =
    Remote.fetch ~net:(Netsim.create Netsim.lan) ~requester:0 ~primary:1 ~replica:2
      ~primary_extra:(10.0 *. Netsim.timeout Netsim.lan ~bytes)
      ~reachable:(fun _ -> true) ~iface:"I0" ~bytes ()
  in
  Alcotest.(check bool) "fetched" true o.Remote.ok;
  Alcotest.(check bool) "hedge won" true o.Remote.hedge_won;
  Alcotest.(check int) "no retries" 0 o.Remote.retries;
  Alcotest.(check int) "one attempt to the primary" 1 o.Remote.attempts;
  Alcotest.(check bool) "no retry events" true
    (List.for_all
       (fun (_, k) ->
         match k with Mcc_obs.Evlog.Rpc_fetch { attempt; _ } -> attempt = 1 | _ -> true)
       o.Remote.events);
  Alcotest.(check bool) "nothing recorded past the artifact in hand" true
    (List.for_all (fun (t, _) -> t <= o.Remote.elapsed) o.Remote.events)

(* --- farm runs under injected faults ------------------------------- *)

let test_fault_free () =
  let r = run () in
  Alcotest.(check bool) "compiled ok" true r.Farm.f_ok;
  Alcotest.(check bool) "no sequential fallback" false r.Farm.f_seq_fallback;
  Alcotest.(check bool) "work was sharded" true (r.Farm.f_tasks > 0);
  check_verify r

let test_crash_reshards () =
  let r = run ~faults:"node-crash:node1@1" () in
  Alcotest.(check int) "one crash" 1 r.Farm.f_crashes;
  Alcotest.(check bool) "death detected" true (r.Farm.f_detects >= 1);
  Alcotest.(check bool) "closures re-sharded" true (r.Farm.f_reshards > 0);
  Alcotest.(check bool) "survivors converged" false r.Farm.f_seq_fallback;
  check_verify r

let test_total_loss_falls_back () =
  let r = run ~nodes:2 ~faults:"node-crash:node0@1,node-crash:node1@1" () in
  Alcotest.(check int) "both nodes died" 2 r.Farm.f_crashes;
  Alcotest.(check bool) "sequential fallback" true r.Farm.f_seq_fallback;
  check_verify r

let test_partition_heals () =
  let r = run ~faults:"partition@1" () in
  Alcotest.(check bool) "partition fired" true (r.Farm.f_partitions >= 1);
  Alcotest.(check bool) "farm converged after heal" false r.Farm.f_seq_fallback;
  check_verify r

let test_gray_node_trips_hedge () =
  let r = run ~faults:"node-slow:node1!" () in
  Alcotest.(check bool) "gray failure armed" true (r.Farm.f_slow_nodes >= 1);
  Alcotest.(check bool) "hedged fetches fired" true (r.Farm.f_hedges >= 1);
  check_verify r

(* The first request and the hedge are both lost, so only a retry to
   the primary can deliver the artifact (a hedge that answers first
   stops the retries). *)
let test_msg_drops_retry () =
  let r = run ~faults:"msg-drop@1,msg-drop@1" () in
  Alcotest.(check bool) "attempts were lost" true (r.Farm.f_rpc_drops > 0);
  Alcotest.(check bool) "retries recovered" true (r.Farm.f_rpc_retries > 0);
  check_verify r

let proj (r : Farm.report) =
  ( r.Farm.f_makespan,
    r.Farm.f_tasks,
    r.Farm.f_fetches,
    r.Farm.f_serves,
    r.Farm.f_rpc_retries,
    r.Farm.f_hedges,
    r.Farm.f_hedge_wins,
    r.Farm.f_steals,
    r.Farm.f_reshards,
    r.Farm.f_crashes )

let test_same_seed_identical () =
  let faults = "node-crash:node1@1,msg-drop%20" in
  let r1 = run ~faults () and r2 = run ~faults () in
  Alcotest.(check bool) "identical counters and makespan" true (proj r1 = proj r2);
  Alcotest.(check bool) "identical observations" true
    (Observation.first_diff ~reference:r1.Farm.f_obs r2.Farm.f_obs = None)

(* The captured farm logs satisfy the Hb farm invariants: every serve
   pairs with a fetch, no sharded closure is lost after a crash, and
   none completes twice.  Two captures because the scenarios differ: a
   fault-free run exercises the fetch/serve pairing (the crash run has
   none — the survivors' probe compiles cover the chain locally), the
   crash run exercises loss-after-death. *)
let hb_clean r =
  let h = Hb.check r.Farm.f_events in
  if not (Hb.ok h) then
    Alcotest.failf "hb violations:\n%s"
      (String.concat "\n" (List.map Hb.violation_to_string h.Hb.violations));
  h

let test_hb_farm_invariants () =
  let r = run ~trace:true () in
  let h = hb_clean r in
  Alcotest.(check int) "every sharded closure completed once" r.Farm.f_tasks h.Hb.n_farm_done;
  Alcotest.(check bool) "fetch/serve pairs logged" true (h.Hb.n_fetches > 0 && h.Hb.n_serves > 0);
  let r = run ~trace:true ~faults:"node-crash:node1@1" () in
  Alcotest.(check bool) "converged" false r.Farm.f_seq_fallback;
  let h = hb_clean r in
  Alcotest.(check int) "no closure lost to the crash" r.Farm.f_tasks h.Hb.n_farm_done;
  Alcotest.(check bool) "node death logged" true (h.Hb.n_node_deaths >= 1);
  Alcotest.(check bool) "re-shards logged" true (h.Hb.n_reshards > 0)

(* The assembly starts when the last closure completes: no heartbeat
   tick or partition heal still on the agenda may delay it. *)
let test_assembly_at_last_closure () =
  List.iter
    (fun faults ->
      let r = run ~trace:true ~faults () in
      let last_done =
        Array.fold_left
          (fun acc (e : Evlog.record) ->
            match e.Evlog.kind with Evlog.Farm_task_done _ -> Some e.Evlog.time | _ -> acc)
          None r.Farm.f_events
      in
      let assembly =
        Array.find_map
          (fun (e : Evlog.record) ->
            match e.Evlog.kind with
            | Evlog.Span_start { name = "assembly"; _ } -> Some e.Evlog.time
            | _ -> None)
          r.Farm.f_events
      in
      Alcotest.(check (option (float 0.0))) ("assembly start, faults=" ^ faults) last_done assembly)
    [ ""; "partition@1" ]

(* On a 300 ms link the primary's timeout, abandoned once the hedge
   to the replica answers, would fall after the final compile ends: a
   fetch records nothing past its end, so the traced log stays
   time-monotone and the span forest validates. *)
let test_slow_link_trace () =
  let cfg =
    {
      Farm.default_config with
      Farm.net = Result.get_ok (Netsim.params_of_string "300000:1000:0");
      faults = Fault.parse_list "node-slow:node1!";
    }
  in
  let r = Farm.run ~trace:true cfg (Mcc_synth.Suite.program 5) in
  Alcotest.(check bool) "a fetch hedged" true (r.Farm.f_hedges >= 1);
  (match Mcc_obs.Dtrace.validate (Mcc_obs.Dtrace.assemble ~subs:r.Farm.f_subs r.Farm.f_events) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (hb_clean r)

let () =
  Alcotest.run "farm"
    [
      ( "shard",
        [
          Alcotest.test_case "assign policies" `Quick test_assign_policies;
          Tutil.qtest prop_steal_never_duplicates;
        ] );
      ("fetch", [ Alcotest.test_case "hedge stops retries" `Quick test_hedge_stops_retries ]);
      ( "fault-wire",
        [
          Tutil.qtest prop_plan_wire_roundtrip;
          Alcotest.test_case "damaged bytes rejected" `Quick test_plan_wire_rejects_damage;
        ] );
      ( "farm",
        [
          Alcotest.test_case "fault free conformance" `Quick test_fault_free;
          Alcotest.test_case "node crash re-shards" `Quick test_crash_reshards;
          Alcotest.test_case "total loss sequential fallback" `Quick test_total_loss_falls_back;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "gray node trips hedge" `Quick test_gray_node_trips_hedge;
          Alcotest.test_case "msg drops retry" `Quick test_msg_drops_retry;
          Alcotest.test_case "same seed identical" `Quick test_same_seed_identical;
          Alcotest.test_case "hb farm invariants" `Quick test_hb_farm_invariants;
          Alcotest.test_case "assembly starts at the last closure" `Quick
            test_assembly_at_last_closure;
          Alcotest.test_case "slow link trace stays monotone" `Quick test_slow_link_trace;
        ] );
    ]
