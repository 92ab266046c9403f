(* End-to-end distributed tracing: span forests from traced serve and
   farm runs must validate (no orphan, every child contained, every
   tile parent exactly partitioned), the cross-node critical path must
   tile the end-to-end time, exports must be byte-deterministic, and
   tracing must never change the virtual-time results it observes.
   The structural invariants are also pinned by qcheck over random
   serve schedules and random farm fault plans. *)

module Evlog = Mcc_obs.Evlog
module Dtrace = Mcc_obs.Dtrace
module Slo = Mcc_obs.Slo
module Trace_ctx = Mcc_obs.Trace_ctx
module Json = Mcc_obs.Json
module Costs = Mcc_sched.Costs
module Fault = Mcc_sched.Fault
module Server = Mcc_serve.Server
module Traffic = Mcc_serve.Traffic
module Request = Mcc_serve.Request
module Farm = Mcc_farm.Farm
module Trace_json = Mcc_analysis.Trace_json

let spu = Costs.seconds_per_unit
let units s = s /. spu

let traffic ?(jobs = 10) ?(clients = 2) ?(seed = 7) ?(mean = 2.0) () =
  Traffic.generate
    { Traffic.default with Traffic.jobs; clients; seed; mean_interarrival = mean }

let serve_traced ?(cfg = Server.default_config) jobs =
  Server.serve ~trace:true ~cache:(Server.cache ()) cfg jobs

let forest_of_serve (r : Server.report) =
  Dtrace.assemble ~subs:r.Server.r_subs r.Server.r_events

let farm_store = lazy (Mcc_synth.Suite.program 3)

let farm_traced ?(cfg = Farm.default_config) () =
  Farm.run ~trace:true cfg (Lazy.force farm_store)

let forest_of_farm (r : Farm.report) = Dtrace.assemble ~subs:r.Farm.f_subs r.Farm.f_events

let check_valid label t =
  match Dtrace.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

(* --- trace contexts ------------------------------------------------ *)

let test_trace_ids () =
  let a = Trace_ctx.trace_id ~domain:"serve" ~seed:1 ~key:"s0/1/M03" in
  Alcotest.(check int) "16 hex digits" 16 (String.length a);
  Alcotest.(check string) "deterministic" a
    (Trace_ctx.trace_id ~domain:"serve" ~seed:1 ~key:"s0/1/M03");
  Alcotest.(check bool) "seed matters" true
    (a <> Trace_ctx.trace_id ~domain:"serve" ~seed:2 ~key:"s0/1/M03");
  Alcotest.(check bool) "domain matters" true
    (a <> Trace_ctx.trace_id ~domain:"farm" ~seed:1 ~key:"s0/1/M03");
  let ids, _ =
    Evlog.capture (fun () ->
        let i1 = Trace_ctx.fresh () in
        let inner, _ =
          Evlog.capture (fun () ->
              let first = Trace_ctx.fresh () in
              ignore (Trace_ctx.fresh ());
              first)
        in
        let i2 = Trace_ctx.fresh () in
        [ i1; inner; i2 ])
  in
  Alcotest.(check (list int)) "ids restart at 1 per context and resume after a nested one"
    [ 1; 1; 2 ] ids

(* --- serve --------------------------------------------------------- *)

(* The tentpole gate, in-miniature: every served job's sojourn is
   exactly tiled by its span tree, and the identity served + shed +
   deadline-shed = submitted is mirrored by span statuses. *)
let test_serve_forest_validates () =
  let r = serve_traced (traffic ()) in
  let t = forest_of_serve r in
  check_valid "serve forest" t;
  let roots = Dtrace.roots t in
  Alcotest.(check int) "one root span per submitted job" r.Server.r_submitted
    (List.length roots);
  (* each served job's root span covers exactly [arrival, finish] *)
  List.iter
    (fun (s : Request.served) ->
      let j = s.Request.s_job in
      let name = Printf.sprintf "job#%d" j.Request.j_id in
      match List.find_opt (fun (sp : Dtrace.span) -> sp.Dtrace.d_name = name) roots with
      | None -> Alcotest.failf "no root span for %s" name
      | Some sp ->
          Alcotest.(check (float 1e-6)) (name ^ " starts at arrival")
            (units j.Request.j_arrival) sp.Dtrace.d_t0;
          Alcotest.(check (float 1e-6)) (name ^ " ends at finish")
            (units s.Request.s_finish) sp.Dtrace.d_t1)
    r.Server.r_served_jobs;
  (* inner engines surfaced: at least one cold compile captured *)
  Alcotest.(check bool) "has sub-logs" true (r.Server.r_subs <> []);
  Alcotest.(check bool) "has inner-task spans" true
    (List.exists (fun (sp : Dtrace.span) -> sp.Dtrace.d_kind = "inner-task") t.Dtrace.spans)

let test_serve_trace_is_free () =
  let jobs = traffic () in
  let plain = Server.serve ~cache:(Server.cache ()) Server.default_config jobs in
  let traced = serve_traced jobs in
  Alcotest.(check int) "served" plain.Server.r_served traced.Server.r_served;
  Alcotest.(check (float 0.0)) "end time unchanged" plain.Server.r_end_seconds
    traced.Server.r_end_seconds;
  List.iter2
    (fun (a : Request.served) b ->
      Alcotest.(check int) "same job order" a.Request.s_job.Request.j_id
        b.Request.s_job.Request.j_id;
      Alcotest.(check (float 0.0)) "same finish" a.Request.s_finish b.Request.s_finish)
    plain.Server.r_served_jobs traced.Server.r_served_jobs

let test_serve_exports_deterministic () =
  let export () =
    let r = serve_traced (traffic ()) in
    let t = forest_of_serve r in
    ( Json.to_string (Dtrace.to_otlp ~sec_per_unit:spu t),
      Dtrace.waterfall ~sec_per_unit:spu t,
      Trace_json.export_spans ~sec_per_unit:spu t )
  in
  let o1, w1, c1 = export () in
  let o2, w2, c2 = export () in
  Alcotest.(check string) "OTLP byte-identical" o1 o2;
  Alcotest.(check string) "waterfall byte-identical" w1 w2;
  Alcotest.(check string) "chrome byte-identical" c1 c2;
  (match Json.validate o1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "OTLP not valid JSON: %s" e);
  match Json.validate c1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome export not valid JSON: %s" e

(* Shed jobs still get closed spans (status shed/deadline), so the
   flight recorder can resolve their trips into bundles. *)
let test_serve_sheds_and_slo () =
  let jobs =
    traffic ~jobs:24 ~clients:3 ~mean:0.02 ~seed:3 ()
  in
  let cfg = { Server.default_config with Server.cap = 3; deadline = Some 1.0 } in
  let r = serve_traced ~cfg jobs in
  Alcotest.(check bool) "some jobs shed" true (r.Server.r_shed + r.Server.r_deadline_shed > 0);
  let t = forest_of_serve r in
  check_valid "shed forest" t;
  let status k = List.filter (fun (s : Dtrace.span) -> s.Dtrace.d_status = k) (Dtrace.roots t) in
  Alcotest.(check int) "one shed root per admission shed" r.Server.r_shed
    (List.length (status "shed"));
  Alcotest.(check int) "one deadline root per deadline shed" r.Server.r_deadline_shed
    (List.length (status "deadline"));
  (* the recorder tripped for every shed, and bundles are non-empty *)
  let slo = r.Server.r_slo in
  Alcotest.(check bool) "trips recorded" true
    (Slo.trip_count slo >= r.Server.r_shed + r.Server.r_deadline_shed);
  List.iter
    (fun (tr : Slo.trip) ->
      Alcotest.(check bool)
        (Printf.sprintf "non-empty bundle for job %d (%s)" tr.Slo.t_job
           (Slo.reason_name tr.Slo.t_reason))
        true
        (Dtrace.bundle t ~trace:tr.Slo.t_trace <> []))
    (Slo.trips slo)

(* --- SLO recorder unit behavior ------------------------------------ *)

let test_slo_recorder () =
  let slo = Slo.create ~cap:4 () in
  Slo.observe slo ~job:1 ~cls:"p2" ~trace:"t1" ~sojourn:10.0 ~at:10.0;
  Slo.observe slo ~job:2 ~cls:"p2" ~trace:"t2" ~sojourn:600.0 ~at:700.0;
  Alcotest.(check int) "one auto trip" 1 (Slo.trip_count slo);
  Alcotest.(check (float 1e-9)) "miss fraction" 0.5 (Slo.miss_fraction slo "p2");
  Alcotest.(check (float 1e-9)) "burn = miss/budget" 5.0 (Slo.burn_rate slo "p2");
  for i = 3 to 10 do
    Slo.observe slo ~job:i ~cls:"p0" ~trace:"t" ~sojourn:1.0 ~at:(float_of_int i)
  done;
  Alcotest.(check int) "ring bounded by cap" 4 (List.length (Slo.entries slo));
  Alcotest.(check bool) "cap must be positive" true
    (try
       ignore (Slo.create ~cap:0 ());
       false
     with Invalid_argument _ -> true)

(* --- farm ---------------------------------------------------------- *)

let test_farm_critpath_sums () =
  let r = farm_traced () in
  let t = forest_of_farm r in
  check_valid "farm forest" t;
  let crit = Dtrace.critpath t in
  Alcotest.(check (float 1e-6)) "critical path tiles the makespan"
    (units r.Farm.f_makespan) crit.Dtrace.c_end;
  Alcotest.(check (float 1e-3)) "bucket totals sum to end-to-end"
    crit.Dtrace.c_end (Dtrace.crit_total crit);
  Alcotest.(check bool) "names a critical node" true (crit.Dtrace.c_critical_node >= 0);
  Alcotest.(check bool) "task spans node-bound" true
    (List.for_all
       (fun (s : Dtrace.span) -> s.Dtrace.d_kind <> "task" || s.Dtrace.d_node >= 0)
       t.Dtrace.spans)

let test_farm_trace_is_free () =
  let plain = Farm.run Farm.default_config (Lazy.force farm_store) in
  let traced = farm_traced () in
  Alcotest.(check (float 0.0)) "same makespan" plain.Farm.f_makespan traced.Farm.f_makespan;
  Alcotest.(check int) "same fetches" plain.Farm.f_fetches traced.Farm.f_fetches;
  Alcotest.(check bool) "verify still passes" true
    (Farm.verify (Lazy.force farm_store) traced = Ok ())

let test_farm_crash_spans () =
  let cfg =
    {
      Farm.default_config with
      Farm.faults = Fault.parse_list "node-crash:node1@1";
      fault_seed = 5;
    }
  in
  let r = farm_traced ~cfg () in
  Alcotest.(check bool) "a crash happened" true (r.Farm.f_crashes > 0);
  let t = forest_of_farm r in
  check_valid "crashed forest still validates" t;
  Alcotest.(check bool) "verify still passes" true
    (Farm.verify (Lazy.force farm_store) r = Ok ())

(* --- qcheck: structural span invariants under random schedules ----- *)

(* Every emitted span has a live parent (or is a root) and nests inside
   it, and every tile parent is exactly partitioned — whatever the
   schedule. [validate] is exactly that conjunction. *)
let prop_serve_forest_valid =
  QCheck.Test.make ~name:"serve: span forest valid under random schedules" ~count:8
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let jobs =
        Traffic.generate
          {
            Traffic.default with
            Traffic.jobs = 6 + (seed mod 7);
            clients = 1 + (seed mod 3);
            seed;
            mean_interarrival = 0.05 +. (float_of_int (seed mod 50) /. 10.0);
          }
      in
      let cfg =
        {
          Server.default_config with
          Server.cap = 2 + (seed mod 8);
          deadline = (if seed mod 2 = 0 then Some 2.0 else None);
          batch_max = 1 + (seed mod 4);
        }
      in
      let r = serve_traced ~cfg jobs in
      let t = forest_of_serve r in
      match Dtrace.validate t with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "seed %d: %s" seed e)

let farm_fault_menu =
  [|
    "";
    "node-crash:node1@1";
    "node-slow:node2!";
    "msg-drop%40";
    "node-crash:node0@2,msg-drop%30";
    "partition@1";
    "node-crash:node1@1,node-slow:node0!";
  |]

let farm_fault_forest seed =
  let cfg =
    {
      Farm.default_config with
      Farm.nodes = 2 + (seed mod 3);
      faults = Fault.parse_list farm_fault_menu.(seed mod Array.length farm_fault_menu);
      fault_seed = seed;
      seed = seed / 7;
    }
  in
  forest_of_farm (farm_traced ~cfg ())

let prop_farm_forest_valid =
  QCheck.Test.make ~name:"farm: span forest valid under random fault plans" ~count:6
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      match Dtrace.validate (farm_fault_forest seed) with
      | Ok () -> true
      | Error e ->
          QCheck.Test.fail_reportf "seed %d (%s): %s" seed
            farm_fault_menu.(seed mod Array.length farm_fault_menu)
            e)

(* Regression: under node-crash:node0@2,msg-drop%30 a hedge wins a fetch
   while the primary's retry loop still plans attempt 2 after it; that
   retry is never sent and must not open an rpc leg past the fetch. *)
let test_farm_hedge_then_retry () =
  let seed = 312428 in
  Alcotest.(check string) "fault plan" "node-crash:node0@2,msg-drop%30"
    farm_fault_menu.(seed mod Array.length farm_fault_menu);
  check_valid "forest validates" (farm_fault_forest seed)

(* --- chrome nested export ------------------------------------------ *)

let test_chrome_nested () =
  let r = farm_traced () in
  let t = forest_of_farm r in
  let doc = Trace_json.export_spans ~sec_per_unit:spu t in
  (match Json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chrome export invalid: %s" e);
  let has sub = Tutil.contains ~sub doc in
  Alcotest.(check bool) "has inner engine process rows" true (has "inner engine of span #");
  Alcotest.(check bool) "inner tasks in their own cat" true (has "\"cat\":\"inner\"");
  Alcotest.(check bool) "root lane metadata present" true (has "thread_name")

let () =
  Alcotest.run "trace"
    [
      ("trace-ctx", [ Alcotest.test_case "ids" `Quick test_trace_ids ]);
      ( "serve",
        [
          Alcotest.test_case "forest validates" `Quick test_serve_forest_validates;
          Alcotest.test_case "tracing is free" `Quick test_serve_trace_is_free;
          Alcotest.test_case "exports deterministic" `Quick test_serve_exports_deterministic;
          Alcotest.test_case "sheds + slo bundles" `Quick test_serve_sheds_and_slo;
        ] );
      ("slo", [ Alcotest.test_case "recorder" `Quick test_slo_recorder ]);
      ( "farm",
        [
          Alcotest.test_case "critpath sums" `Quick test_farm_critpath_sums;
          Alcotest.test_case "tracing is free" `Quick test_farm_trace_is_free;
          Alcotest.test_case "crash spans" `Quick test_farm_crash_spans;
          Alcotest.test_case "hedge win cancels later retries" `Quick test_farm_hedge_then_retry;
        ] );
      ( "properties",
        [ Tutil.qtest prop_serve_forest_valid; Tutil.qtest prop_farm_forest_valid ] );
      ("chrome", [ Alcotest.test_case "nested export" `Quick test_chrome_nested ]);
    ]
