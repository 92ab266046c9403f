(* The shared-memory execution engine: real parallelism on OCaml domains.

   The same effect-based tasks that the DES engine simulates are executed
   here on [domains] worker domains sharing one address space, mirroring
   the paper's Topaz lightweight threads on the Firefly.  One worker is
   created per requested processor; workers pull tasks from the shared
   Supervisor (under a single mutex — task granularity is large enough
   that the lock is not a bottleneck at the paper's scale of tens of
   processors).

   A blocked task's continuation is parked on the awaited event and the
   worker takes other work — this is what the paper's Supervisors scheme
   approximated under the constraint that Topaz threads could not migrate;
   effect continuations migrate freely, so every worker is eligible for
   every ready task.  Barrier events are treated like handled events here
   (parking is as cheap as spinning for us, and it cannot deadlock).

   Work accounting is disabled: real time is real.  [run] returns wall-
   clock seconds. *)

type outcome = Completed | Deadlocked of int (* number of tasks still parked *)

type result = {
  wall_seconds : float;
  outcome : outcome;
  tasks_run : int;
  failures : (string * exn) list;
}

type state = {
  sup : Supervisor.t;
  mu : Mutex.t;
  cond : Condition.t;
  waiting : (int, (Task.t * Eff.resumption) list) Hashtbl.t;
  mutable n_waiting : int;
  mutable active : int;
  mutable stop : bool;
  mutable n_finished : int;
  mutable failures : (string * exn) list;
}

let signal_locked st (ev : Event.t) =
  if not (Event.occurred ev) then begin
    Event.mark ev;
    Supervisor.on_event st.sup ev;
    (match Hashtbl.find_opt st.waiting ev.Event.id with
    | None -> ()
    | Some waiters ->
        Hashtbl.remove st.waiting ev.Event.id;
        List.iter
          (fun (task, k) ->
            st.n_waiting <- st.n_waiting - 1;
            Supervisor.resume st.sup task k)
          waiters);
    Condition.broadcast st.cond
  end

(* Run one task entry to its next suspension point.  Returns when the
   task finished or parked; the worker then loops for more work. *)
let exec st entry =
  let rec handle (task : Task.t) (step : Eff.step) =
    match step with
    | Eff.Worked (_, k) -> handle task (Eff.resume k)
    | Eff.Finished _ ->
        Mutex.lock st.mu;
        task.Task.state <- Task.Done;
        st.active <- st.active - 1;
        st.n_finished <- st.n_finished + 1;
        Condition.broadcast st.cond;
        Mutex.unlock st.mu
    | Eff.Failed (e, _bt) ->
        Mutex.lock st.mu;
        task.Task.state <- Task.Done;
        st.active <- st.active - 1;
        st.n_finished <- st.n_finished + 1;
        st.failures <- (task.Task.name, e) :: st.failures;
        Condition.broadcast st.cond;
        Mutex.unlock st.mu
    | Eff.Blocked (ev, k) ->
        Mutex.lock st.mu;
        if Event.occurred ev then begin
          Mutex.unlock st.mu;
          handle task (Eff.resume k)
        end
        else begin
          task.Task.state <- Task.Blocked;
          let l = Option.value ~default:[] (Hashtbl.find_opt st.waiting ev.Event.id) in
          Hashtbl.replace st.waiting ev.Event.id ((task, k) :: l);
          st.n_waiting <- st.n_waiting + 1;
          Supervisor.prefer st.sup ev.Event.producer;
          st.active <- st.active - 1;
          Condition.broadcast st.cond;
          Mutex.unlock st.mu
        end
    | Eff.Signaled (ev, k) ->
        Mutex.lock st.mu;
        signal_locked st ev;
        Mutex.unlock st.mu;
        handle task (Eff.resume k)
    | Eff.Spawned (task', k) ->
        Mutex.lock st.mu;
        Supervisor.submit st.sup task';
        Condition.broadcast st.cond;
        Mutex.unlock st.mu;
        handle task (Eff.resume k)
  in
  match entry with
  | Supervisor.Fresh task ->
      task.Task.state <- Task.Running;
      handle task (Eff.start task.Task.body)
  | Supervisor.Resumed (task, k) ->
      task.Task.state <- Task.Running;
      handle task (Eff.resume k)

let worker st () =
  let rec loop () =
    Mutex.lock st.mu;
    let rec get () =
      if st.stop then begin
        Mutex.unlock st.mu;
        None
      end
      else
        match Supervisor.pick st.sup with
        | Some entry ->
            st.active <- st.active + 1;
            Mutex.unlock st.mu;
            Some entry
        | None ->
            if st.active = 0 then begin
              (* quiescent: either done or deadlocked (parked tasks whose
                 events nobody will signal) *)
              st.stop <- true;
              Condition.broadcast st.cond;
              Mutex.unlock st.mu;
              None
            end
            else begin
              Condition.wait st.cond st.mu;
              get ()
            end
    in
    match get () with
    | None -> ()
    | Some entry ->
        exec st entry;
        loop ()
  in
  loop ()

let run ~domains tasks =
  if domains < 1 then invalid_arg "Domain_engine.run: need at least one domain";
  let st =
    {
      sup = Supervisor.create ();
      mu = Mutex.create ();
      cond = Condition.create ();
      waiting = Hashtbl.create 64;
      n_waiting = 0;
      active = 0;
      stop = false;
      n_finished = 0;
      failures = [];
    }
  in
  (* a fresh run in an empty context (no domain appends to an enclosing
     log) that charges no work *)
  Eff.within ~obs:(Mcc_obs.Evlog.ctx ()) ~accounting:false Eff.Engine (fun () ->
      List.iter (Supervisor.submit st.sup) tasks;
      let t0 = Unix.gettimeofday () in
      let workers = List.init (domains - 1) (fun _ -> Domain.spawn (worker st)) in
      worker st ();
      List.iter Domain.join workers;
      let wall = Unix.gettimeofday () -. t0 in
      {
        wall_seconds = wall;
        outcome = (if st.n_waiting = 0 then Completed else Deadlocked st.n_waiting);
        tasks_run = st.n_finished;
        failures = List.rev st.failures;
      })
