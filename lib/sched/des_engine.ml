(* The discrete-event simulated multiprocessor.

   This engine runs real compiler tasks (which do real compilation work
   on real source text) on [procs] simulated processors, advancing a
   virtual clock from the work units the tasks charge.  It substitutes
   for the paper's 8-CVax DEC Firefly: the *shape* of the computation —
   which tasks exist, what they wait on, how much work each does — comes
   from the actual compilation; only time is virtual.  Runs are exactly
   deterministic: the agenda breaks ties by insertion order and the free
   processor list is kept sorted.

   Scheduling follows the Supervisors approach (paper §2.3.2), through
   the step interpreter shared with the domain engine ([Interp]): a task
   blocking on a handled event is suspended and its processor is given
   other work, with preference given to the task that will signal the
   awaited event.  What is this engine's own: the agenda and virtual
   clock, the free processors, barrier waits (which keep the processor
   bound, as in the paper's token streams), fault injection and the
   stall watchdog.

   Memory-bus contention: a work segment started when [b] processors are
   busy is stretched by (1 + beta*(b-1)^2), modelling the Firefly's bus
   saturation (paper §4.1). *)

open Mcc_util
module Evlog = Mcc_obs.Evlog
module Metrics = Mcc_obs.Metrics

type outcome = Interp.outcome = Completed | Deadlocked of string list

type result = {
  end_time : float; (* virtual work units *)
  end_seconds : float; (* end_time scaled by Costs.seconds_per_unit *)
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
  it : Interp.t;
  agenda : item Heap.t;
  barrier_waiting : (int, (int * float * Task.t * Eff.resumption) list) Hashtbl.t;
  attempts : (int, int) Hashtbl.t; (* task id -> injected start-crash count *)
  stalled : (int, int) Hashtbl.t; (* task id -> injected stall count *)
  mutable free : int list; (* sorted ascending *)
  mutable barrier_count : int;
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

let add_free st p = st.free <- List.sort compare (p :: st.free)

(* Processor [p] ran [task] over [t0, t1] or, [barrier], held it bound
   through a barrier wait: the engine's only record of what ran when
   ([Trace.of_log] reads it back). *)
let busy_record p (task : Task.t) ~t0 ~t1 ~barrier =
  if Evlog.enabled () then
    Evlog.emit (Evlog.Busy { proc = p; task = task.Task.id; t0; t1; barrier })

let schedule_entry st t p entry =
  let t' = t +. Costs.dispatch_cost in
  match entry with
  | Supervisor.Fresh task -> Heap.push st.agenda t' (Start (p, task))
  | Supervisor.Resumed (task, k) -> Heap.push st.agenda t' (Continue (p, task, k))

(* Give ready tasks to free processors at time [t], lowest first. *)
let rec try_assign st t =
  match st.free with
  | p :: rest when Supervisor.n_ready st.it.Interp.sup > 0 -> (
      match Supervisor.pick st.it.Interp.sup with
      | Some entry ->
          st.free <- rest;
          schedule_entry st t p entry;
          try_assign st t
      | None -> ())
  | _ -> ()

(* Processor [p] became free at [t]: give it work or park it. *)
let release_proc st t p =
  match Supervisor.pick st.it.Interp.sup with
  | Some entry -> schedule_entry st t p entry
  | None -> add_free st p

(* Resume barrier waiters of [ev_id] at [t] on their own (still bound)
   processors. *)
let wake_barrier ?(on_wake = ignore) st t ev_id =
  match Hashtbl.find_opt st.barrier_waiting ev_id with
  | None -> ()
  | Some waiters ->
      Hashtbl.remove st.barrier_waiting ev_id;
      List.iter
        (fun (p, t_block, (task : Task.t), k) ->
          st.barrier_count <- st.barrier_count - 1;
          on_wake task;
          if Evlog.enabled () then Evlog.emit (Evlog.Ev_wake { ev = ev_id; task = task.Task.id });
          busy_record p task ~t0:t_block ~t1:t ~barrier:true;
          Heap.push st.agenda t (Continue (p, task, k)))
        waiters

(* An injected dropped wake: the signal lands (the event is marked, the
   gate opens) but the handled waiters' wake-ups are lost — they stay
   parked for the stall watchdog to find. *)
let dropped_wake (ev : Event.t) =
  Fault.armed ()
  && Fault.fires Fault.Dropped_wake ev.Event.name
  && begin
       if Evlog.enabled () then
         Evlog.emit (Evlog.Fault_inject { fault = "dropped-wake"; victim = ev.Event.name });
       true
     end

let do_signal st t ev =
  if Interp.signal ~dropped:dropped_wake st.it ev then begin
    wake_barrier st t ev.Event.id;
    try_assign st t
  end

let finish_task st t p task =
  Interp.finish st.it task;
  release_proc st t p

(* [task] runs [units] of work on [p] from [t]; [next] is due when
   they are done. *)
let segment st t p (task : Task.t) units next =
  let dur = scale st units in
  if Metrics.enabled () then
    Metrics.observe ~labels:[ ("cls", Task.cls_name task.Task.cls) ] "mcc_task_run_units" dur;
  busy_record p task ~t0:t ~t1:(t +. dur) ~barrier:false;
  Heap.push st.agenda (t +. dur) next

(* Drive one task on processor [p] starting from [step] at time [t],
   until it yields to the scheduler. *)
let rec handle_step st t p (task : Task.t) (step : Eff.step) =
  match step with
  | Eff.Worked (c, k) ->
      if Metrics.enabled () then
        Metrics.gauge_max "mcc_sched_busy_procs_peak" (float_of_int (busy st));
      segment st t p task c (Continue (p, task, k))
  | Eff.Finished residue ->
      if residue > 0 then segment st t p task residue (Complete (p, task))
      else finish_task st t p task
  | Eff.Failed (e, _bt) ->
      Interp.fail st.it task e;
      release_proc st t p
  | Eff.Blocked (ev, k) ->
      if Event.occurred ev then handle_step st t p task (Eff.resume k)
      else if ev.Event.kind = Event.Barrier then begin
        Interp.block st.it task ev;
        st.barrier_count <- st.barrier_count + 1;
        let l = Option.value ~default:[] (Hashtbl.find_opt st.barrier_waiting ev.Event.id) in
        Hashtbl.replace st.barrier_waiting ev.Event.id ((p, t, task, k) :: l)
      end
      else begin
        Interp.park st.it task ev k;
        release_proc st t p
      end
  | Eff.Signaled (ev, k) ->
      do_signal st t ev;
      handle_step st t p task (Eff.resume k)
  | Eff.Spawned (task', k) ->
      Interp.spawn st.it task';
      try_assign st t;
      handle_step st t p task (Eff.resume k)

(* Retries exhausted, or a resume-point crash (where partial effects
   make a re-run unsafe): the task is permanently failed.  It still
   counts as finished so the engine's accounting stays uniform; the
   driver decides what the lost stream means for the program. *)
let quarantine st (task : Task.t) =
  if Evlog.enabled () then
    Evlog.emit (Evlog.Task_quarantine { task = task.Task.id; name = task.Task.name });
  if Metrics.enabled () then Metrics.incr "mcc_fault_quarantine_total";
  st.quarantined <- task.Task.name :: st.quarantined

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
    if Fault.fires Fault.Task_crash ~aux:cls name then begin
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
      else begin
        quarantine st task;
        Interp.fail st.it task (Fault.Injected name);
        release_proc st t p
      end;
      true
    end
    else if count st.stalled < Costs.retry_limit && Fault.fires Fault.Stall ~aux:cls name then begin
      if Evlog.enabled () then Evlog.emit (Evlog.Fault_inject { fault = "stall"; victim = name });
      Hashtbl.replace st.stalled task.Task.id (1 + count st.stalled);
      if Metrics.enabled () then Metrics.incr "mcc_fault_stall_total";
      st.stalls <- st.stalls + 1;
      Heap.push st.agenda (t +. float_of_int Costs.stall_penalty) (Start (p, task));
      true
    end
    else false
  end

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
      (fun ev_id _ acc ->
        match Hashtbl.find_opt st.it.Interp.events_seen ev_id with
        | Some ev when Event.occurred ev -> ev_id :: acc
        | _ -> acc)
      tbl []
    |> List.sort compare
  in
  let recovered = ref false in
  let redeliver wake ev_id =
    st.watchdog_fires <- st.watchdog_fires + 1;
    wake
      (fun (task : Task.t) ->
        recovered := true;
        st.recovered_wakes <- st.recovered_wakes + 1;
        if Evlog.enabled () then
          Evlog.emit (Evlog.Watchdog_fire { ev = ev_id; task = task.Task.id }))
      ev_id
  in
  List.iter (redeliver (fun on_wake -> Interp.wake ~on_wake st.it)) (stale st.it.Interp.waiting);
  List.iter (redeliver (fun on_wake -> wake_barrier ~on_wake st t)) (stale st.barrier_waiting);
  if !recovered then try_assign st t;
  !recovered

(* Run agenda item [item] at time [t]. *)
let dispatch st t item =
  let logging = Evlog.enabled () in
  let (Start (_, task) | Continue (_, task, _) | Complete (_, task)) = item in
  if Metrics.enabled () then
    Metrics.incr ~labels:[ ("cls", Task.cls_name task.Task.cls) ] "mcc_sched_dispatch_total";
  match item with
  | Start (p, task) ->
      if not (inject_at_start st t p task) then begin
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
        && Fault.fires Fault.Task_crash ~aux:(Task.cls_name task.Task.cls) task.Task.name
      then begin
        (* crash at a resume point: the body already ran partway (it may
           have published symbols), so a re-run is unsafe — quarantine
           via an injected abort *)
        if logging then
          Evlog.emit (Evlog.Fault_inject { fault = "task-crash"; victim = task.Task.name });
        quarantine st task;
        handle_step st t p task (Eff.discontinue k (Fault.Injected task.Task.name))
      end
      else handle_step st t p task (Eff.resume k)
  | Complete (p, task) ->
      if logging then Evlog.set_task task.Task.id;
      finish_task st t p task

let run ?(beta = Costs.bus_beta) ?(fifo = false) ?perturb ~procs tasks =
  if procs < 1 then invalid_arg "Des_engine.run: need at least one processor";
  let st =
    {
      it = Interp.create (Supervisor.create ~fifo ?perturb:(Option.map Prng.create perturb) ());
      agenda = Heap.create dummy_item;
      barrier_waiting = Hashtbl.create 64;
      attempts = Hashtbl.create 8;
      stalled = Hashtbl.create 8;
      free = List.init procs Fun.id;
      barrier_count = 0;
      retries = 0;
      quarantined = [];
      stalls = 0;
      watchdog_fires = 0;
      recovered_wakes = 0;
      procs;
      beta;
    }
  in
  Eff.within Eff.Engine (fun () ->
      let fired0 = Fault.fired () in
      let logging = Evlog.enabled () in
      if logging then Evlog.set_time 0.0;
      List.iter (Interp.spawn st.it) tasks;
      try_assign st 0.0;
      let last_t = ref 0.0 in
      let rec loop () =
        match Heap.pop st.agenda with
        | None -> ()
        | Some (t, item) ->
            last_t := t;
            if logging then Evlog.set_time t;
            dispatch st t item;
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
      let barriers =
        Hashtbl.fold
          (fun ev_id waiters acc -> List.map (fun (_, _, task, _) -> (ev_id, task)) waiters @ acc)
          st.barrier_waiting []
      in
      (* every segment ends at an agenda time, so the last one is the
         makespan *)
      let end_time = !last_t in
      {
        end_time;
        end_seconds = Costs.to_seconds end_time;
        outcome = Interp.outcome ~barriers st.it;
        tasks_run = st.it.Interp.n_finished;
        failures = List.rev st.it.Interp.failures;
        handled_blocks = st.it.Interp.handled_blocks;
        injected = Fault.fired () - fired0;
        retries = st.retries;
        quarantined = List.rev st.quarantined;
        stalls = st.stalls;
        watchdog_fires = st.watchdog_fires;
        recovered_wakes = st.recovered_wakes;
      })
