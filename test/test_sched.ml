(* Tests for the concurrency substrate: events, effect-based tasks, the
   Supervisor, the discrete-event engine and the domain engine. *)

open Mcc_sched

let mk ?gate ?(cls = Task.Aux) ?(size_hint = 0) name body =
  Task.create ?gate ~cls ~size_hint ~name body

let run ?(procs = 2) tasks = Des_engine.run ~procs tasks

(* [run] in a logging context, with the segments its log records. *)
let traced ?procs tasks =
  let r, log = Mcc_obs.Evlog.capture (fun () -> run ?procs tasks) in
  (r, Trace.of_log log)

let completed (r : Des_engine.result) =
  match r.Des_engine.outcome with Des_engine.Completed -> true | _ -> false

(* --- basic DES behaviour --- *)

let test_single_task () =
  let ran = ref false in
  let r = run [ mk "t" (fun () -> ran := true) ] in
  Alcotest.(check bool) "ran" true !ran;
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "one task" 1 r.Des_engine.tasks_run

let test_work_advances_time () =
  let r = run ~procs:1 [ mk "w" (fun () -> Eff.work 5000) ] in
  if r.Des_engine.end_time < 5000.0 then
    Alcotest.failf "time did not advance: %f" r.Des_engine.end_time

let test_parallel_speedup () =
  let tasks () = List.init 8 (fun i -> mk (Printf.sprintf "w%d" i) (fun () -> Eff.work 10_000)) in
  let t1 = (run ~procs:1 (tasks ())).Des_engine.end_time in
  let t8 = (run ~procs:8 (tasks ())).Des_engine.end_time in
  if t1 /. t8 < 5.0 then Alcotest.failf "expected near-linear speedup, got %.2f" (t1 /. t8)

let test_contention_slows_parallel () =
  (* with a large beta, parallel work is stretched *)
  let tasks () = List.init 8 (fun i -> mk (Printf.sprintf "w%d" i) (fun () -> Eff.work 10_000)) in
  let fast = (Des_engine.run ~beta:0.0 ~procs:8 (tasks ())).Des_engine.end_time in
  let slow = (Des_engine.run ~beta:0.1 ~procs:8 (tasks ())).Des_engine.end_time in
  if slow <= fast then Alcotest.fail "bus contention should stretch parallel execution"

let test_determinism () =
  let build () =
    let ev = Event.create ~kind:Event.Handled "e" in
    [
      mk "a" (fun () ->
          Eff.work 1234;
          Eff.signal ev);
      mk "b" (fun () ->
          Eff.work 100;
          Eff.wait ev;
          Eff.work 777);
      mk "c" (fun () -> Eff.work 5000);
    ]
  in
  (* task ids come from a global counter: renumber them by first
     appearance, then compare each processor's segment list *)
  let per_proc (trace : Trace.t) =
    let ids = Hashtbl.create 8 in
    let renumber id =
      match Hashtbl.find_opt ids id with
      | Some i -> i
      | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids id i;
          i
    in
    let segs =
      List.map (fun s -> { s with Trace.task_id = renumber s.Trace.task_id }) trace.Trace.segs
    in
    List.init 2 (fun p -> List.filter (fun s -> s.Trace.proc = p) segs)
  in
  let r1, t1 = traced ~procs:2 (build ()) in
  let r2, t2 = traced ~procs:2 (build ()) in
  Alcotest.(check (float 0.0)) "same end time" r1.Des_engine.end_time r2.Des_engine.end_time;
  Alcotest.(check bool) "segments recorded" true (t1.Trace.segs <> []);
  Alcotest.(check bool) "same per-processor segments" true (per_proc t1 = per_proc t2)

(* --- events --- *)

let test_handled_event_unblocks () =
  let ev = Event.create ~kind:Event.Handled "e" in
  let order = ref [] in
  let r =
    run ~procs:1
      [
        mk "waiter" (fun () ->
            Eff.wait ev;
            order := "waiter" :: !order);
        mk "signaler" (fun () ->
            Eff.work 100;
            order := "signaler" :: !order;
            Eff.signal ev);
      ]
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check (list string)) "waiter resumed after signal" [ "waiter"; "signaler" ] !order

let test_wait_on_occurred_event_is_free () =
  let ev = Event.create ~kind:Event.Handled "e" in
  let r =
    run ~procs:1
      [
        mk "signaler" (fun () -> Eff.signal ev);
        mk "waiter" (fun () ->
            Eff.wait ev;
            Eff.work 10);
      ]
  in
  Alcotest.(check bool) "completed" true (completed r)

let test_barrier_holds_processor () =
  (* a barrier waiter keeps its processor: with 2 procs, a third task
     cannot run while the waiter blocks, so the signaler must finish
     first and total time reflects serialization of the third task *)
  let ev = Event.create ~kind:Event.Barrier "b" in
  let r =
    run ~procs:1
      [
        mk "producer" (fun () ->
            Eff.work 500;
            Eff.signal ev);
        mk "consumer" (fun () ->
            Eff.wait ev;
            Eff.work 10);
      ]
  in
  Alcotest.(check bool) "barrier compilation completes" true (completed r)

let test_barrier_wait_traced () =
  let ev = Event.create ~kind:Event.Barrier "b" in
  let _, trace =
    traced ~procs:2
      [
        mk "consumer" (fun () -> Eff.wait ev);
        mk "producer" (fun () ->
            Eff.work 2000;
            Eff.signal ev);
      ]
  in
  let has_wait = List.exists (fun s -> s.Trace.kind = Trace.Waitbar) trace.Trace.segs in
  Alcotest.(check bool) "barrier wait recorded in trace" true has_wait

let test_avoided_event_gates () =
  let gate = Event.create ~kind:Event.Avoided "g" in
  let order = ref [] in
  let r =
    run ~procs:2
      [
        mk ~gate "gated" (fun () -> order := "gated" :: !order);
        mk "opener" (fun () ->
            Eff.work 1000;
            order := "opener" :: !order;
            Eff.signal gate);
      ]
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check (list string)) "gated task ran only after the gate" [ "gated"; "opener" ] !order

let test_deadlock_detected () =
  let ev = Event.create ~kind:Event.Handled "never" in
  let r = run [ mk "stuck" (fun () -> Eff.wait ev) ] in
  match r.Des_engine.outcome with
  | Des_engine.Deadlocked reports ->
      Alcotest.(check bool) "reports the stuck task" true
        (List.exists (Tutil.contains ~sub:"stuck") reports)
  | Des_engine.Completed -> Alcotest.fail "deadlock not detected"

let test_gate_deadlock_detected () =
  let gate = Event.create ~kind:Event.Avoided "never" in
  let r = run [ mk ~gate "gated" (fun () -> ()) ] in
  match r.Des_engine.outcome with
  | Des_engine.Deadlocked reports ->
      Alcotest.(check bool) "reports the gated task" true
        (List.exists (Tutil.contains ~sub:"gated") reports)
  | Des_engine.Completed -> Alcotest.fail "gated task should never have run"

let test_task_failure_reported () =
  let r = run [ mk "boom" (fun () -> failwith "kapow") ] in
  Alcotest.(check int) "failure recorded" 1 (List.length r.Des_engine.failures);
  Alcotest.(check bool) "completes despite failure" true (completed r)

let test_spawn () =
  let count = ref 0 in
  let r =
    run
      [
        mk "root" (fun () ->
            for i = 1 to 5 do
              Eff.spawn (mk (Printf.sprintf "child%d" i) (fun () -> incr count))
            done);
      ]
  in
  Alcotest.(check int) "children ran" 5 !count;
  Alcotest.(check int) "six tasks" 6 r.Des_engine.tasks_run

(* --- priorities --- *)

let test_priority_order () =
  (* with one processor, ready tasks run in class-priority order *)
  let order = ref [] in
  let log name () = order := name :: !order in
  let r =
    run ~procs:1
      [
        mk ~cls:Task.ShortGen "gen" (log "gen");
        mk ~cls:Task.Lexor "lexor" (log "lexor");
        mk ~cls:Task.ModParse "parse" (log "parse");
        mk ~cls:Task.Splitter "split" (log "split");
      ]
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check (list string)) "priority order" [ "lexor"; "split"; "parse"; "gen" ]
    (List.rev !order)

let test_long_before_short () =
  (* within the code-generation classes, bigger size hints run first *)
  let order = ref [] in
  let log name () = order := name :: !order in
  let r =
    run ~procs:1
      [
        mk ~cls:Task.LongGen ~size_hint:10 "small" (log "small");
        mk ~cls:Task.LongGen ~size_hint:500 "big" (log "big");
        mk ~cls:Task.LongGen ~size_hint:100 "mid" (log "mid");
      ]
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check (list string)) "longest first" [ "big"; "mid"; "small" ] (List.rev !order)

let test_fifo_ablation_order () =
  (* with ~fifo the ready list ignores class priorities *)
  let order = ref [] in
  let log name () = order := name :: !order in
  let r =
    Des_engine.run ~fifo:true ~procs:1
      [
        mk ~cls:Task.ShortGen "gen" (log "gen");
        mk ~cls:Task.Lexor "lexor" (log "lexor");
        mk ~cls:Task.Splitter "split" (log "split");
      ]
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check (list string)) "submission order, not priority" [ "gen"; "lexor"; "split" ]
    (List.rev !order)

let test_prefer_producer () =
  (* when a task blocks on an event, the event's producer jumps the
     queue within its class (paper 2.3.4) *)
  let ev = Event.create ~kind:Event.Handled "dky" in
  let order = ref [] in
  let log name () = order := name :: !order in
  let producer =
    mk ~cls:Task.ShortGen "producer" (fun () ->
        log "producer" ();
        Eff.signal ev)
  in
  Event.set_producer ev producer.Task.id;
  let r =
    Des_engine.run ~procs:1
      [
        mk ~cls:Task.Lexor "blocker" (fun () ->
            log "blocker" ();
            Eff.wait ev;
            log "blocker-resumed" ());
        mk ~cls:Task.ShortGen "bystander" (log "bystander");
        producer;
      ]
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check (list string)) "producer preferred over bystander"
    [ "blocker"; "producer"; "blocker-resumed"; "bystander" ]
    (List.rev !order)

let test_makespan_bounds () =
  (* makespan sanity: never less than total work / procs, never more
     than total work (plus scheduling epsilon) *)
  let work = [ 5_000; 12_000; 3_000; 8_000; 20_000 ] in
  let tasks () = List.mapi (fun i w -> mk (Printf.sprintf "w%d" i) (fun () -> Eff.work w)) work in
  let total = float_of_int (List.fold_left ( + ) 0 work) in
  let r = Des_engine.run ~beta:0.0 ~procs:3 (tasks ()) in
  Alcotest.(check bool) "lower bound" true (r.Des_engine.end_time >= total /. 3.0);
  Alcotest.(check bool) "upper bound" true (r.Des_engine.end_time <= total +. 1_000.0)

(* --- the domain engine --- *)

let test_domain_engine_basic () =
  let count = Atomic.make 0 in
  let tasks = List.init 20 (fun i -> mk (Printf.sprintf "w%d" i) (fun () -> Atomic.incr count)) in
  let r = Domain_engine.run ~domains:4 tasks in
  Alcotest.(check int) "all ran" 20 (Atomic.get count);
  Alcotest.(check int) "tasks_run" 20 r.Domain_engine.tasks_run;
  Alcotest.(check bool) "completed" true
    (match r.Domain_engine.outcome with Domain_engine.Completed -> true | _ -> false)

let test_domain_engine_events () =
  let ev = Event.create ~kind:Event.Handled "e" in
  let got = Atomic.make 0 in
  let tasks =
    [
      mk "waiter" (fun () ->
          Eff.wait ev;
          Atomic.incr got);
      mk "signaler" (fun () -> Eff.signal ev);
    ]
  in
  let r = Domain_engine.run ~domains:2 tasks in
  Alcotest.(check int) "waiter resumed" 1 (Atomic.get got);
  Alcotest.(check bool) "completed" true
    (match r.Domain_engine.outcome with Domain_engine.Completed -> true | _ -> false)

let test_domain_engine_deadlock () =
  let ev = Event.create ~kind:Event.Handled "never" in
  let r = Domain_engine.run ~domains:2 [ mk "stuck" (fun () -> Eff.wait ev) ] in
  Alcotest.(check bool) "deadlock detected" true
    (match r.Domain_engine.outcome with Domain_engine.Deadlocked _ -> true | _ -> false)

let test_domain_engine_gate_deadlock () =
  (* a task gated on an avoided event that never occurs never runs, and
     the engine names it instead of reporting completion *)
  let gate = Event.create ~kind:Event.Avoided "never" in
  let ran = Atomic.make false in
  let r = Domain_engine.run ~domains:2 [ mk ~gate "gated" (fun () -> Atomic.set ran true) ] in
  Alcotest.(check bool) "never ran" false (Atomic.get ran);
  Alcotest.(check int) "tasks_run" 0 r.Domain_engine.tasks_run;
  match r.Domain_engine.outcome with
  | Domain_engine.Deadlocked reports ->
      Alcotest.(check bool) "reports the gated task" true
        (List.exists (Tutil.contains ~sub:"gated gated on") reports)
  | Domain_engine.Completed -> Alcotest.fail "gated task reported as completed"

let test_domain_engine_failure () =
  let r =
    Domain_engine.run ~domains:2 [ mk "boom" (fun () -> failwith "boom"); mk "fine" (fun () -> ()) ]
  in
  Alcotest.(check int) "both counted" 2 r.Domain_engine.tasks_run;
  (match r.Domain_engine.failures with
  | [ ("boom", Failure _) ] -> ()
  | _ -> Alcotest.fail "expected exactly the raising task's failure");
  Alcotest.(check bool) "completed" true
    (match r.Domain_engine.outcome with Domain_engine.Completed -> true | _ -> false)

let test_domain_engine_barrier () =
  let ev = Event.create ~kind:Event.Barrier "b" in
  let got = Atomic.make 0 in
  let r =
    Domain_engine.run ~domains:2
      [
        mk "waiter" (fun () ->
            Eff.wait ev;
            Atomic.incr got);
        mk "signaler" (fun () -> Eff.signal ev);
      ]
  in
  Alcotest.(check int) "waiter resumed" 1 (Atomic.get got);
  Alcotest.(check bool) "completed" true
    (match r.Domain_engine.outcome with Domain_engine.Completed -> true | _ -> false)

let test_domain_engine_spawn () =
  let child_ran = Atomic.make false in
  let r =
    Domain_engine.run ~domains:2
      [ mk "parent" (fun () -> Eff.spawn (mk "child" (fun () -> Atomic.set child_ran true))) ]
  in
  Alcotest.(check bool) "child ran" true (Atomic.get child_ran);
  Alcotest.(check int) "tasks_run" 2 r.Domain_engine.tasks_run;
  Alcotest.(check bool) "completed" true
    (match r.Domain_engine.outcome with Domain_engine.Completed -> true | _ -> false)

(* --- Supervisor unit behaviour: prefer, gated release, perturbation --- *)

let test_supervisor_prefer_moves_to_front () =
  let sup = Supervisor.create () in
  let t1 = mk ~cls:Task.ProcParse "p1" (fun () -> ()) in
  let t2 = mk ~cls:Task.ProcParse "p2" (fun () -> ()) in
  let t3 = mk ~cls:Task.ProcParse "p3" (fun () -> ()) in
  List.iter (Supervisor.submit sup) [ t1; t2; t3 ];
  Supervisor.prefer sup t3.Task.id;
  (match Supervisor.pick sup with
  | Some e -> Alcotest.(check string) "preferred first" "p3" (Supervisor.entry_task e).Task.name
  | None -> Alcotest.fail "expected a ready entry");
  (* an unknown id is a no-op: the remaining order is untouched *)
  Supervisor.prefer sup 999_999;
  match Supervisor.pick sup with
  | Some e -> Alcotest.(check string) "fifo after prefer" "p1" (Supervisor.entry_task e).Task.name
  | None -> Alcotest.fail "expected a ready entry"

let test_supervisor_gated_release_order () =
  let sup = Supervisor.create () in
  let gate = Event.create ~kind:Event.Avoided "gate" in
  let names = [ "g1"; "g2"; "g3" ] in
  List.iter (fun n -> Supervisor.submit sup (mk ~gate ~cls:Task.ProcParse n (fun () -> ()))) names;
  Alcotest.(check int) "parked" 3 (Supervisor.n_gated sup);
  Alcotest.(check int) "none ready" 0 (Supervisor.n_ready sup);
  Event.mark gate;
  Supervisor.on_event sup gate;
  Alcotest.(check int) "released" 3 (Supervisor.n_ready sup);
  let order =
    List.filter_map
      (fun _ -> Option.map (fun e -> (Supervisor.entry_task e).Task.name) (Supervisor.pick sup))
      names
  in
  Alcotest.(check (list string)) "released in submission order" names order

let test_gated_release_order_through_des () =
  (* the same property end to end: released gated tasks run in
     submission order on a single processor *)
  let order = ref [] in
  let gate = Event.create ~kind:Event.Avoided "gate" in
  let worker n = mk ~gate n (fun () -> order := n :: !order) in
  let signaler =
    mk "sig" (fun () ->
        Eff.work 500;
        Eff.signal gate)
  in
  let r = run ~procs:1 [ worker "g1"; worker "g2"; worker "g3"; signaler ] in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check (list string)) "run order" [ "g1"; "g2"; "g3" ] (List.rev !order)

let test_perturb_reproducible () =
  let build () =
    let ev = Event.create ~kind:Event.Handled "e" in
    [
      mk "a" (fun () ->
          Eff.work 1234;
          Eff.signal ev);
      mk "b" (fun () ->
          Eff.work 100;
          Eff.wait ev;
          Eff.work 777);
      mk "c" (fun () -> Eff.work 5000);
      mk "d" (fun () -> Eff.work 50);
    ]
  in
  let t s = (Des_engine.run ~perturb:s ~procs:2 (build ())).Des_engine.end_time in
  Alcotest.(check (float 0.0)) "same seed, same schedule" (t 7) (t 7);
  let r = Des_engine.run ~perturb:3 ~procs:2 (build ()) in
  Alcotest.(check bool) "perturbed run completes" true (completed r);
  Alcotest.(check int) "all tasks ran" 4 r.Des_engine.tasks_run

(* --- fault injection and self-healing (engine level) --- *)

let with_specs ?(seed = 0) specs f =
  Mcc_obs.Evlog.within ~faults:(Fault.plan ~seed (List.map Fault.parse specs)) f

let test_start_crash_retried () =
  (* a crash before the body ran is retryable: the engine redispatches
     after a virtual-time backoff and the run still completes *)
  let ran = ref 0 in
  let r =
    with_specs [ "task-crash:victim@1" ] (fun () ->
        run [ mk "victim" (fun () -> incr ran) ])
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "body ran exactly once" 1 !ran;
  Alcotest.(check int) "one injection" 1 r.Des_engine.injected;
  Alcotest.(check int) "one retry" 1 r.Des_engine.retries;
  Alcotest.(check (list string)) "no quarantine" [] r.Des_engine.quarantined;
  Alcotest.(check bool) "backoff charged" true
    (r.Des_engine.end_time >= float_of_int Costs.retry_backoff)

let test_permanent_crash_quarantined () =
  (* a pinned victim keeps crashing: retries exhaust, the task is
     quarantined as an injected failure, everything else still runs *)
  let ran = ref 0 and other = ref 0 in
  let r =
    with_specs [ "task-crash:victim@1!" ] (fun () ->
        run [ mk "victim" (fun () -> incr ran); mk "other" (fun () -> incr other) ])
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "victim never ran" 0 !ran;
  Alcotest.(check int) "other task unaffected" 1 !other;
  Alcotest.(check (list string)) "quarantined" [ "victim" ] r.Des_engine.quarantined;
  Alcotest.(check int) "retried to the limit first" Costs.retry_limit r.Des_engine.retries;
  (match r.Des_engine.failures with
  | [ ("victim", Fault.Injected _) ] -> ()
  | _ -> Alcotest.fail "expected exactly the injected failure");
  Alcotest.(check int) "quarantined task still counted finished" 2 r.Des_engine.tasks_run

let test_resume_crash_quarantined () =
  (* a crash at a resume point (the body already ran partway) is not
     retryable: the task is aborted and quarantined immediately *)
  let stage = ref 0 in
  let r =
    with_specs [ "task-crash:victim@2" ] (fun () ->
        run
          [
            mk "victim" (fun () ->
                stage := 1;
                (* above the quantum, so the body yields a resume point *)
                Eff.work 1000;
                stage := 2);
          ])
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "aborted mid-body" 1 !stage;
  Alcotest.(check int) "no retry for a partial body" 0 r.Des_engine.retries;
  Alcotest.(check (list string)) "quarantined" [ "victim" ] r.Des_engine.quarantined

let test_stall_delays_dispatch () =
  let r0 = run [ mk "victim" (fun () -> Eff.work 10) ] in
  let r =
    with_specs [ "stall:victim@1" ] (fun () -> run [ mk "victim" (fun () -> Eff.work 10) ])
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "one stall" 1 r.Des_engine.stalls;
  Alcotest.(check bool) "stall penalty paid" true
    (r.Des_engine.end_time >= r0.Des_engine.end_time +. float_of_int Costs.stall_penalty)

let test_dropped_wake_recovered_by_watchdog () =
  (* the signal lands but the waiter's wake is lost; at quiescence the
     watchdog finds the occurred event and re-delivers — never a hang *)
  let woke = ref false in
  let r =
    with_specs [ "dropped-wake:e@1" ] (fun () ->
        let ev = Event.create ~kind:Event.Handled "e" in
        run ~procs:2
          [
            mk "waiter" (fun () ->
                Eff.wait ev;
                woke := true);
            mk "signaler" (fun () ->
                Eff.work 100;
                Eff.signal ev);
          ])
  in
  Alcotest.(check bool) "completed, not deadlocked" true (completed r);
  Alcotest.(check bool) "waiter resumed" true !woke;
  Alcotest.(check int) "watchdog fired" 1 r.Des_engine.watchdog_fires;
  Alcotest.(check int) "one recovered wake" 1 r.Des_engine.recovered_wakes;
  Alcotest.(check bool) "recovery cost virtual time" true
    (r.Des_engine.end_time >= Costs.watchdog_interval)

let test_watchdog_never_masks_real_deadlock () =
  (* the watchdog only re-delivers wakes for events that occurred: a
     task waiting on a never-signaled event is still a deadlock *)
  let r =
    with_specs [ "dropped-wake%100" ] (fun () ->
        let ev = Event.create ~kind:Event.Handled "never" in
        run [ mk "stuck" (fun () -> Eff.wait ev) ])
  in
  (match r.Des_engine.outcome with
  | Des_engine.Deadlocked reports ->
      Alcotest.(check bool) "reports the stuck task" true
        (List.exists (Tutil.contains ~sub:"stuck") reports)
  | Des_engine.Completed -> Alcotest.fail "genuine deadlock masked by the watchdog");
  Alcotest.(check int) "nothing recovered" 0 r.Des_engine.recovered_wakes

let test_engine_fault_replay_deterministic () =
  let build () =
    let ev = Event.create ~kind:Event.Handled "e" in
    [
      mk "a" (fun () ->
          Eff.work 1234;
          Eff.signal ev);
      mk "b" (fun () ->
          Eff.work 100;
          Eff.wait ev;
          Eff.work 777);
      mk "c" (fun () -> Eff.work 5000);
    ]
  in
  let go () =
    with_specs ~seed:9 [ "task-crash:a@1"; "dropped-wake%50"; "stall:c@1" ] (fun () ->
        run ~procs:2 (build ()))
  in
  let r1 = go () and r2 = go () in
  Alcotest.(check (float 0.0)) "same end time" r1.Des_engine.end_time r2.Des_engine.end_time;
  Alcotest.(check int) "same injections" r1.Des_engine.injected r2.Des_engine.injected;
  Alcotest.(check int) "same retries" r1.Des_engine.retries r2.Des_engine.retries;
  Alcotest.(check int) "same recovered wakes" r1.Des_engine.recovered_wakes
    r2.Des_engine.recovered_wakes

(* --- cost accounting in direct mode --- *)

let test_direct_mode_accumulates () =
  Eff.within Eff.Direct (fun () ->
      Eff.work 1234;
      Eff.work 766;
      Eff.flush ();
      Alcotest.(check (float 0.0)) "total" 2000.0 (Eff.get_direct_total ()))

(* [Eff.work_units n] must be indistinguishable from [n] calls of
   [Eff.work 1]: the lexer charges a token's characters in one call on
   that promise.  Each case starts from an accumulator already holding
   [acc0] units, with accounting on or off, and [n] ranging over several
   quanta. *)
let unit_charges n =
  for _ = 1 to n do
    Eff.work 1
  done

(* The [Worked] sizes a body yields under [Eff.start], then its
   [Finished] residue. *)
let engine_steps ~accounting body =
  Eff.within ~accounting Eff.Engine (fun () ->
      let rec go sizes = function
        | Eff.Worked (c, k) -> go (c :: sizes) (Eff.resume k)
        | Eff.Finished residue -> (List.rev sizes, residue)
        | _ -> Alcotest.fail "a work charge performed a scheduling effect"
      in
      go [] (Eff.start body))

(* The direct-mode total before and after the final flush. *)
let direct_totals ~accounting body =
  Eff.within ~accounting Eff.Direct (fun () ->
      body ();
      let unflushed = Eff.get_direct_total () in
      Eff.flush ();
      (unflushed, Eff.get_direct_total ()))

(* Each case checks an arbitrary [n] and one within [off] units of
   filling a quantum exactly (after [k] more whole quanta), where a
   flush point is easiest to misplace. *)
let prop_work_units_flush_exact =
  QCheck.Test.make ~name:"work_units n = n calls of work 1" ~count:300
    QCheck.(
      quad (int_bound (Costs.quantum - 1)) (int_bound ((3 * Costs.quantum) + 17)) (int_range (-2) 2)
        bool)
    (fun (acc0, n, off, accounting) ->
      let same n =
        let batched () =
          Eff.work acc0;
          Eff.work_units n
        and unit () =
          Eff.work acc0;
          unit_charges n
        in
        engine_steps ~accounting batched = engine_steps ~accounting unit
        && direct_totals ~accounting batched = direct_totals ~accounting unit
      in
      same n && same (max 0 (Costs.quantum - acc0 + off + (n mod 3 * Costs.quantum))))

let test_work_units_spans_quanta () =
  let sizes, residue = engine_steps ~accounting:true (fun () ->
      Eff.work 10;
      Eff.work_units ((2 * Costs.quantum) + 5))
  in
  Alcotest.(check (list int)) "two full quanta" [ Costs.quantum; Costs.quantum ] sizes;
  Alcotest.(check int) "residue" 15 residue;
  let sizes, residue = engine_steps ~accounting:false (fun () -> Eff.work_units 5000) in
  Alcotest.(check (list int)) "accounting off: no effects" [] sizes;
  Alcotest.(check int) "accounting off: no residue" 0 residue

let test_direct_wait_on_unoccurred_raises () =
  let ev = Event.create ~kind:Event.Handled "e" in
  match Eff.wait ev with
  | () -> Alcotest.fail "expected Deadlock_in_direct_mode"
  | exception Eff.Deadlock_in_direct_mode _ -> ()

let () =
  Alcotest.run "sched"
    [
      ( "des",
        [
          Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "work advances time" `Quick test_work_advances_time;
          Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
          Alcotest.test_case "contention" `Quick test_contention_slows_parallel;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "spawn" `Quick test_spawn;
          Alcotest.test_case "failure reported" `Quick test_task_failure_reported;
        ] );
      ( "events",
        [
          Alcotest.test_case "handled unblocks" `Quick test_handled_event_unblocks;
          Alcotest.test_case "occurred wait free" `Quick test_wait_on_occurred_event_is_free;
          Alcotest.test_case "barrier completes" `Quick test_barrier_holds_processor;
          Alcotest.test_case "barrier traced" `Quick test_barrier_wait_traced;
          Alcotest.test_case "avoided gates" `Quick test_avoided_event_gates;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "gate deadlock detected" `Quick test_gate_deadlock_detected;
        ] );
      ( "priorities",
        [
          Alcotest.test_case "class order" `Quick test_priority_order;
          Alcotest.test_case "long before short" `Quick test_long_before_short;
          Alcotest.test_case "fifo ablation" `Quick test_fifo_ablation_order;
          Alcotest.test_case "producer preferred" `Quick test_prefer_producer;
          Alcotest.test_case "makespan bounds" `Quick test_makespan_bounds;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "prefer moves to front" `Quick test_supervisor_prefer_moves_to_front;
          Alcotest.test_case "gated release order" `Quick test_supervisor_gated_release_order;
          Alcotest.test_case "gated order through DES" `Quick test_gated_release_order_through_des;
          Alcotest.test_case "perturb reproducible" `Quick test_perturb_reproducible;
        ] );
      ( "faults",
        [
          Alcotest.test_case "start crash retried" `Quick test_start_crash_retried;
          Alcotest.test_case "permanent crash quarantined" `Quick test_permanent_crash_quarantined;
          Alcotest.test_case "resume crash quarantined" `Quick test_resume_crash_quarantined;
          Alcotest.test_case "stall delays dispatch" `Quick test_stall_delays_dispatch;
          Alcotest.test_case "dropped wake recovered" `Quick
            test_dropped_wake_recovered_by_watchdog;
          Alcotest.test_case "real deadlock not masked" `Quick
            test_watchdog_never_masks_real_deadlock;
          Alcotest.test_case "fault replay deterministic" `Quick
            test_engine_fault_replay_deterministic;
        ] );
      ( "domains",
        [
          Alcotest.test_case "basic" `Quick test_domain_engine_basic;
          Alcotest.test_case "events" `Quick test_domain_engine_events;
          Alcotest.test_case "deadlock" `Quick test_domain_engine_deadlock;
          Alcotest.test_case "gate deadlock" `Quick test_domain_engine_gate_deadlock;
          Alcotest.test_case "failure reported" `Quick test_domain_engine_failure;
          Alcotest.test_case "barrier completes" `Quick test_domain_engine_barrier;
          Alcotest.test_case "spawn" `Quick test_domain_engine_spawn;
        ] );
      ( "direct mode",
        [
          Alcotest.test_case "accumulates" `Quick test_direct_mode_accumulates;
          Alcotest.test_case "wait raises" `Quick test_direct_wait_on_unoccurred_raises;
        ] );
      ( "work units",
        [
          Alcotest.test_case "spans quanta" `Quick test_work_units_spans_quanta;
          Tutil.qtest prop_work_units_flush_exact;
        ] );
    ]
