(* The discrete-event simulated multiprocessor.

   This engine runs real compiler tasks (which do real compilation work
   on real source text) on [procs] simulated processors, advancing a
   virtual clock from the work units the tasks charge.  It substitutes
   for the paper's 8-CVax DEC Firefly: the *shape* of the computation —
   which tasks exist, what they wait on, how much work each does — comes
   from the actual compilation; only time is virtual.  Runs are exactly
   deterministic: the agenda breaks ties by insertion order and the free
   processor list is kept sorted.

   Scheduling follows the Supervisors approach (paper §2.3.2): tasks are
   queued in the Supervisor's class-priority structure; a processor that
   frees up takes the highest-priority ready task.  A task blocking on a
   handled event is suspended (its continuation parked on the event) and
   its processor is given other work, with preference given to the task
   that will signal the awaited event; barrier waits keep the processor
   bound, as in the paper's token streams.

   Memory-bus contention: a work segment started when [b] processors are
   busy is stretched by (1 + beta*(b-1)), modelling the Firefly's bus
   saturation (paper §4.1). *)

open Mcc_util
module Evlog = Mcc_obs.Evlog
module Metrics = Mcc_obs.Metrics

type outcome = Completed | Deadlocked of string list

type result = {
  end_time : float; (* virtual work units *)
  end_seconds : float; (* end_time scaled by Costs.seconds_per_unit *)
  trace : Trace.t;
  outcome : outcome;
  tasks_run : int;
  failures : (string * exn) list; (* task name, exception *)
  handled_blocks : int;
      (* suspensions on handled events of any kind (token-queue waits,
         completion waits, ...); symbol-table DKY blockages specifically
         are counted by [Mcc_sem.Lookup_stats] *)
  injected : int; (* faults fired by the armed Fault plan during the run *)
  retries : int; (* crashed-at-start tasks redispatched after backoff *)
  quarantined : string list; (* tasks permanently failed by injection *)
  stalls : int; (* injected stalled-worker delays *)
  watchdog_fires : int; (* occurred events whose lost wakes were re-delivered *)
  recovered_wakes : int; (* parked tasks the watchdog woke *)
}

type item =
  | Start of int * Task.t
  | Continue of int * Task.t * Eff.resumption
  | Complete of int * Task.t

type state = {
  sup : Supervisor.t;
  agenda : item Heap.t;
  trace : Trace.t;
  waiting : (int, (Task.t * Eff.resumption) list) Hashtbl.t;
  barrier_waiting : (int, (int * float * Task.t * Eff.resumption) list) Hashtbl.t;
  events_seen : (int, Event.t) Hashtbl.t;
      (* every event that crossed a block or signal site, by id — lets
         the watchdog and the deadlock report ask whether an id has
         occurred and name it *)
  attempts : (int, int) Hashtbl.t; (* task id -> injected start-crash count *)
  stalled : (int, int) Hashtbl.t; (* task id -> injected stall count *)
  mutable free : int list; (* sorted ascending *)
  mutable barrier_count : int;
  mutable n_blocked : int;
  mutable n_finished : int;
  mutable failures : (string * exn) list;
  mutable handled_blocks : int;
  mutable retries : int;
  mutable quarantined : string list; (* reversed *)
  mutable stalls : int;
  mutable watchdog_fires : int;
  mutable recovered_wakes : int;
  procs : int;
  beta : float;
}

let dummy_item = Complete (0, Task.create ~cls:Task.Aux ~name:"dummy" (fun () -> ()))

let busy st = st.procs - List.length st.free - st.barrier_count

let scale st units =
  let b = max 1 (busy st) in
  let x = float_of_int (b - 1) in
  float_of_int units *. (1.0 +. (st.beta *. x *. x))

let take_free st =
  match st.free with
  | [] -> None
  | p :: rest ->
      st.free <- rest;
      Some p

let add_free st p = st.free <- List.sort compare (p :: st.free)

let schedule_entry st t p entry =
  let t' = t +. Costs.dispatch_cost in
  match entry with
  | Supervisor.Fresh task -> Heap.push st.agenda t' (Start (p, task))
  | Supervisor.Resumed (task, k) -> Heap.push st.agenda t' (Continue (p, task, k))

(* Give ready tasks to free processors at time [t]. *)
let rec try_assign st t =
  if st.free <> [] && Supervisor.n_ready st.sup > 0 then begin
    match take_free st with
    | None -> ()
    | Some p -> (
        match Supervisor.pick st.sup with
        | Some entry ->
            schedule_entry st t p entry;
            try_assign st t
        | None -> add_free st p)
  end

(* Processor [p] became free at [t]: give it work or park it. *)
let release_proc st t p =
  match Supervisor.pick st.sup with
  | Some entry -> schedule_entry st t p entry
  | None -> add_free st p

let do_signal st t (ev : Event.t) =
  if not (Event.occurred ev) then begin
    Event.mark ev;
    ev.Event.signal_time <- t;
    Hashtbl.replace st.events_seen ev.Event.id ev;
    if Evlog.enabled () then Evlog.emit (Evlog.Ev_signal { ev = ev.Event.id; name = ev.Event.name });
    if Metrics.enabled () then Metrics.incr "mcc_sched_signal_total";
    (* release tasks gated on this avoided event *)
    Supervisor.on_event st.sup ev;
    (* injected dropped wake: the signal lands (the event is marked, the
       gate opens) but the handled waiters' wake-ups are lost — they stay
       parked in [st.waiting] for the stall watchdog to find *)
    let dropped = Fault.armed () && Fault.drop_wake ~ev:ev.Event.name in
    if dropped && Evlog.enabled () then
      Evlog.emit (Evlog.Fault_inject { fault = "dropped-wake"; victim = ev.Event.name });
    (* wake handled waiters: their continuations go back to the ready
       structure, at the front of their class *)
    (match Hashtbl.find_opt st.waiting ev.Event.id with
    | None -> ()
    | Some waiters when not dropped ->
        Hashtbl.remove st.waiting ev.Event.id;
        List.iter
          (fun ((task : Task.t), k) ->
            st.n_blocked <- st.n_blocked - 1;
            if Evlog.enabled () then
              Evlog.emit (Evlog.Ev_wake { ev = ev.Event.id; task = task.Task.id });
            if Metrics.enabled () then Metrics.incr "mcc_sched_wake_total";
            Supervisor.resume st.sup task k)
          waiters
    | Some _ -> ());
    (* wake barrier waiters on their own (still bound) processors *)
    (match Hashtbl.find_opt st.barrier_waiting ev.Event.id with
    | None -> ()
    | Some waiters ->
        Hashtbl.remove st.barrier_waiting ev.Event.id;
        List.iter
          (fun (p, t_block, (task : Task.t), k) ->
            st.barrier_count <- st.barrier_count - 1;
            if Evlog.enabled () then
              Evlog.emit (Evlog.Ev_wake { ev = ev.Event.id; task = task.Task.id });
            Trace.add st.trace ~proc:p ~task_id:task.Task.id ~cls:task.Task.cls ~t0:t_block ~t1:t
              ~kind:Trace.Waitbar;
            Heap.push st.agenda t (Continue (p, task, k)))
          waiters);
    try_assign st t
  end

(* Drive one task on processor [p] starting from [step] at time [t],
   until it yields to the scheduler. *)
let rec handle_step st t p (task : Task.t) (step : Eff.step) =
  match step with
  | Eff.Worked (c, k) ->
      let dur = scale st c in
      if Metrics.enabled () then begin
        Metrics.observe ~labels:[ ("cls", Task.cls_name task.Task.cls) ] "mcc_task_run_units" dur;
        Metrics.gauge_max "mcc_sched_busy_procs_peak" (float_of_int (busy st))
      end;
      Trace.add st.trace ~proc:p ~task_id:task.Task.id ~cls:task.Task.cls ~t0:t ~t1:(t +. dur)
        ~kind:Trace.Run;
      Heap.push st.agenda (t +. dur) (Continue (p, task, k))
  | Eff.Finished residue ->
      if residue > 0 then begin
        let dur = scale st residue in
        if Metrics.enabled () then
          Metrics.observe ~labels:[ ("cls", Task.cls_name task.Task.cls) ] "mcc_task_run_units" dur;
        Trace.add st.trace ~proc:p ~task_id:task.Task.id ~cls:task.Task.cls ~t0:t ~t1:(t +. dur)
          ~kind:Trace.Run;
        Heap.push st.agenda (t +. dur) (Complete (p, task))
      end
      else finish_task st t p task
  | Eff.Failed (e, _bt) ->
      st.failures <- (task.Task.name, e) :: st.failures;
      finish_task st t p task
  | Eff.Blocked (ev, k) ->
      Hashtbl.replace st.events_seen ev.Event.id ev;
      if Event.occurred ev then handle_step st t p task (Eff.resume k)
      else if ev.Event.kind = Event.Barrier then begin
        if Evlog.enabled () then
          Evlog.emit
            (Evlog.Ev_block { ev = ev.Event.id; name = ev.Event.name; producer = ev.Event.producer });
        if Metrics.enabled () then
          Metrics.incr ~labels:[ ("kind", "barrier") ] "mcc_sched_block_total";
        task.Task.state <- Task.Blocked;
        st.barrier_count <- st.barrier_count + 1;
        let l = Option.value ~default:[] (Hashtbl.find_opt st.barrier_waiting ev.Event.id) in
        Hashtbl.replace st.barrier_waiting ev.Event.id ((p, t, task, k) :: l)
      end
      else begin
        if Evlog.enabled () then
          Evlog.emit
            (Evlog.Ev_block { ev = ev.Event.id; name = ev.Event.name; producer = ev.Event.producer });
        if Metrics.enabled () then
          Metrics.incr ~labels:[ ("kind", "handled") ] "mcc_sched_block_total";
        task.Task.state <- Task.Blocked;
        st.n_blocked <- st.n_blocked + 1;
        st.handled_blocks <- st.handled_blocks + 1;
        let l = Option.value ~default:[] (Hashtbl.find_opt st.waiting ev.Event.id) in
        Hashtbl.replace st.waiting ev.Event.id ((task, k) :: l);
        (* prefer the task that will signal this event (paper §2.3.4) *)
        Supervisor.prefer st.sup ev.Event.producer;
        release_proc st t p
      end
  | Eff.Signaled (ev, k) ->
      do_signal st t ev;
      handle_step st t p task (Eff.resume k)
  | Eff.Spawned (task', k) ->
      if Evlog.enabled () then
        Evlog.emit
          (Evlog.Task_spawn
             {
               task = task'.Task.id;
               name = task'.Task.name;
               cls = Task.cls_name task'.Task.cls;
               gate = (match task'.Task.gate with Some g -> g.Event.id | None -> -1);
             });
      Supervisor.submit st.sup task';
      try_assign st t;
      handle_step st t p task (Eff.resume k)

and finish_task st t p (task : Task.t) =
  if Evlog.enabled () then Evlog.emit (Evlog.Task_finish { task = task.Task.id });
  if Metrics.enabled () then
    Metrics.incr ~labels:[ ("cls", Task.cls_name task.Task.cls) ] "mcc_task_finish_total";
  task.Task.state <- Task.Done;
  st.n_finished <- st.n_finished + 1;
  release_proc st t p

(* Retries exhausted (or a resume-point crash, where partial effects
   make a re-run unsafe): permanently fail the task.  It still counts as
   finished so the engine's accounting stays uniform; the driver decides
   what the lost stream means for the program. *)
let quarantine st t p (task : Task.t) =
  if Evlog.enabled () then
    Evlog.emit (Evlog.Task_quarantine { task = task.Task.id; name = task.Task.name });
  if Metrics.enabled () then Metrics.incr "mcc_fault_quarantine_total";
  st.quarantined <- task.Task.name :: st.quarantined;
  st.failures <- (task.Task.name, Fault.Injected task.Task.name) :: st.failures;
  finish_task st t p task

(* Consult the armed fault plan at a Start dispatch.  Returns true when
   the fault consumed this dispatch (the caller skips running the body).
   A crash before the body ran is retryable: redispatch after a
   virtual-time backoff, up to [Costs.retry_limit] attempts, then
   quarantine.  A stall just delays the dispatch, capped at
   [Costs.retry_limit] stalls so a pinned victim still terminates. *)
let inject_at_start st t p (task : Task.t) =
  if not (Fault.armed ()) then false
  else begin
    let name = task.Task.name and cls = Task.cls_name task.Task.cls in
    let count tbl = Option.value ~default:0 (Hashtbl.find_opt tbl task.Task.id) in
    if Fault.crash ~name ~cls then begin
      if Evlog.enabled () then
        Evlog.emit (Evlog.Fault_inject { fault = "task-crash"; victim = name });
      let n = 1 + count st.attempts in
      Hashtbl.replace st.attempts task.Task.id n;
      if n <= Costs.retry_limit then begin
        st.retries <- st.retries + 1;
        if Evlog.enabled () then Evlog.emit (Evlog.Task_retry { task = task.Task.id; attempt = n });
        if Metrics.enabled () then Metrics.incr "mcc_fault_retry_total";
        Heap.push st.agenda (t +. float_of_int Costs.retry_backoff) (Start (p, task))
      end
      else quarantine st t p task;
      true
    end
    else if count st.stalled < Costs.retry_limit && Fault.stall ~name ~cls then begin
      if Evlog.enabled () then Evlog.emit (Evlog.Fault_inject { fault = "stall"; victim = name });
      Hashtbl.replace st.stalled task.Task.id (1 + count st.stalled);
      if Metrics.enabled () then Metrics.incr "mcc_fault_stall_total";
      st.stalls <- st.stalls + 1;
      Heap.push st.agenda (t +. float_of_int Costs.stall_penalty) (Start (p, task));
      true
    end
    else false
  end

(* Diagnose what everyone is stuck on when the agenda drains with parked
   tasks remaining: the blocked-task wait graph, with event names and
   expected producers where known. *)
let deadlock_report st =
  let ev_desc ev_id =
    match Hashtbl.find_opt st.events_seen ev_id with
    | Some ev ->
        let prod =
          if ev.Event.producer >= 0 then Printf.sprintf ", producer task#%d" ev.Event.producer
          else ""
        in
        if ev.Event.name <> "" then Printf.sprintf "event#%d (%s%s)" ev_id ev.Event.name prod
        else Printf.sprintf "event#%d" ev_id
    | None -> Printf.sprintf "event#%d" ev_id
  in
  let waits =
    Hashtbl.fold
      (fun ev_id waiters acc ->
        List.map
          (fun ((t : Task.t), _) -> Printf.sprintf "%s waits on %s" t.name (ev_desc ev_id))
          waiters
        @ acc)
      st.waiting []
  in
  let bars =
    Hashtbl.fold
      (fun ev_id waiters acc ->
        List.map
          (fun (_, _, (t : Task.t), _) ->
            Printf.sprintf "%s barrier-waits on %s" t.name (ev_desc ev_id))
          waiters
        @ acc)
      st.barrier_waiting []
  in
  let gates =
    List.concat_map
      (fun (ev_id, names) ->
        List.map (fun n -> Printf.sprintf "%s gated on %s" n (ev_desc ev_id)) names)
      (Supervisor.gated_events st.sup)
  in
  List.sort compare (waits @ bars @ gates)

(* The virtual-time stall watchdog.  Called when the agenda has drained
   with tasks still parked: any parked task whose event has in fact
   occurred lost its wake (an injected dropped wake, or any future bug
   of the same shape) — re-deliver it [Costs.watchdog_interval] later
   and let the run continue.  Returns true if anything was recovered. *)
let watchdog_sweep st t =
  if Evlog.enabled () then Evlog.set_time t;
  if Metrics.enabled () then Metrics.incr "mcc_watchdog_sweep_total";
  let stale tbl =
    Hashtbl.fold
      (fun ev_id waiters acc ->
        match Hashtbl.find_opt st.events_seen ev_id with
        | Some ev when Event.occurred ev -> (ev_id, waiters) :: acc
        | _ -> acc)
      tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let recovered = ref false in
  List.iter
    (fun (ev_id, waiters) ->
      Hashtbl.remove st.waiting ev_id;
      st.watchdog_fires <- st.watchdog_fires + 1;
      List.iter
        (fun ((task : Task.t), k) ->
          recovered := true;
          st.n_blocked <- st.n_blocked - 1;
          st.recovered_wakes <- st.recovered_wakes + 1;
          if Evlog.enabled () then begin
            Evlog.emit (Evlog.Watchdog_fire { ev = ev_id; task = task.Task.id });
            Evlog.emit (Evlog.Ev_wake { ev = ev_id; task = task.Task.id })
          end;
          Supervisor.resume st.sup task k)
        waiters)
    (stale st.waiting);
  List.iter
    (fun (ev_id, waiters) ->
      Hashtbl.remove st.barrier_waiting ev_id;
      st.watchdog_fires <- st.watchdog_fires + 1;
      List.iter
        (fun (p, t_block, (task : Task.t), k) ->
          recovered := true;
          st.barrier_count <- st.barrier_count - 1;
          st.recovered_wakes <- st.recovered_wakes + 1;
          if Evlog.enabled () then begin
            Evlog.emit (Evlog.Watchdog_fire { ev = ev_id; task = task.Task.id });
            Evlog.emit (Evlog.Ev_wake { ev = ev_id; task = task.Task.id })
          end;
          Trace.add st.trace ~proc:p ~task_id:task.Task.id ~cls:task.Task.cls ~t0:t_block ~t1:t
            ~kind:Trace.Waitbar;
          Heap.push st.agenda t (Continue (p, task, k)))
        waiters)
    (stale st.barrier_waiting);
  if !recovered then try_assign st t;
  !recovered

let run ?(beta = Costs.bus_beta) ?(fifo = false) ?perturb ~procs tasks =
  if procs < 1 then invalid_arg "Des_engine.run: need at least one processor";
  let st =
    {
      sup = Supervisor.create ~fifo ?perturb:(Option.map Prng.create perturb) ();
      agenda = Heap.create dummy_item;
      trace = Trace.create ();
      waiting = Hashtbl.create 64;
      barrier_waiting = Hashtbl.create 64;
      events_seen = Hashtbl.create 64;
      attempts = Hashtbl.create 8;
      stalled = Hashtbl.create 8;
      free = List.init procs Fun.id;
      barrier_count = 0;
      n_blocked = 0;
      n_finished = 0;
      failures = [];
      handled_blocks = 0;
      retries = 0;
      quarantined = [];
      stalls = 0;
      watchdog_fires = 0;
      recovered_wakes = 0;
      procs;
      beta;
    }
  in
  let fired0 = Fault.fired () in
  let saved_mode = !Eff.mode in
  Eff.mode := Eff.Engine;
  Eff.acc := 0;
  Fun.protect
    ~finally:(fun () -> Eff.mode := saved_mode)
    (fun () ->
      let logging = Evlog.enabled () in
      if logging then begin
        Evlog.set_time 0.0;
        List.iter
          (fun (task : Task.t) ->
            Evlog.emit
              (Evlog.Task_spawn
                 {
                   task = task.Task.id;
                   name = task.Task.name;
                   cls = Task.cls_name task.Task.cls;
                   gate = (match task.Task.gate with Some g -> g.Event.id | None -> -1);
                 }))
          tasks
      end;
      List.iter (Supervisor.submit st.sup) tasks;
      try_assign st 0.0;
      let last_t = ref 0.0 in
      let rec loop () =
        match Heap.pop st.agenda with
        | None -> ()
        | Some (t, item) ->
            last_t := t;
            if logging then Evlog.set_time t;
            if Metrics.enabled () then
              Metrics.incr
                ~labels:
                  [
                    ( "cls",
                      Task.cls_name
                        (match item with
                        | Start (_, task) | Continue (_, task, _) | Complete (_, task) ->
                            task.Task.cls) );
                  ]
                "mcc_sched_dispatch_total";
            (match item with
            | Start (p, task) ->
                if inject_at_start st t p task then ()
                else begin
                  if logging then begin
                    Evlog.set_task task.Task.id;
                    Evlog.emit (Evlog.Task_start { task = task.Task.id })
                  end;
                  task.Task.state <- Task.Running;
                  handle_step st t p task (Eff.start task.Task.body)
                end
            | Continue (p, task, k) ->
                if logging then Evlog.set_task task.Task.id;
                if
                  Fault.armed ()
                  && Fault.crash ~name:task.Task.name ~cls:(Task.cls_name task.Task.cls)
                then begin
                  (* crash at a resume point: the body already ran partway
                     (it may have published symbols), so a re-run is
                     unsafe — quarantine via an injected abort *)
                  if logging then
                    Evlog.emit
                      (Evlog.Fault_inject { fault = "task-crash"; victim = task.Task.name });
                  if logging then
                    Evlog.emit
                      (Evlog.Task_quarantine { task = task.Task.id; name = task.Task.name });
                  st.quarantined <- task.Task.name :: st.quarantined;
                  handle_step st t p task (Eff.discontinue k (Fault.Injected task.Task.name))
                end
                else handle_step st t p task (Eff.resume k)
            | Complete (p, task) ->
                if logging then Evlog.set_task task.Task.id;
                finish_task st t p task);
            loop ()
      in
      loop ();
      (* quiescence with tasks still parked: give the stall watchdog a
         chance to convert dropped wakes back into progress before
         declaring deadlock *)
      let rec drive () =
        let t = !last_t +. Costs.watchdog_interval in
        if watchdog_sweep st t then begin
          last_t := t;
          loop ();
          drive ()
        end
      in
      drive ();
      let stuck = deadlock_report st in
      let end_time = max !last_t (Trace.horizon st.trace) in
      {
        end_time;
        end_seconds = Costs.to_seconds end_time;
        trace = st.trace;
        outcome = (if stuck = [] then Completed else Deadlocked stuck);
        tasks_run = st.n_finished;
        failures = List.rev st.failures;
        handled_blocks = st.handled_blocks;
        injected = Fault.fired () - fired0;
        retries = st.retries;
        quarantined = List.rev st.quarantined;
        stalls = st.stalls;
        watchdog_fires = st.watchdog_fires;
        recovered_wakes = st.recovered_wakes;
      })
