(* The shared-memory execution engine: real parallelism on OCaml domains.

   The same effect-based tasks that the DES engine simulates are executed
   here on [domains] worker domains sharing one address space, mirroring
   the paper's Topaz lightweight threads on the Firefly.  One worker is
   created per requested processor; workers pull tasks from the shared
   Supervisor and drive the shared step interpreter ([Interp]) under a
   single mutex — task granularity is large enough that the lock is not
   a bottleneck at the paper's scale of tens of processors.

   A blocked task's continuation is parked on the awaited event and the
   worker takes other work — this is what the paper's Supervisors scheme
   approximated under the constraint that Topaz threads could not migrate;
   effect continuations migrate freely, so every worker is eligible for
   every ready task.  Barrier events are treated like handled events here
   (parking is as cheap as spinning for us, and it cannot deadlock).

   Work accounting is disabled: real time is real.  [run] returns wall-
   clock seconds. *)

type outcome = Interp.outcome = Completed | Deadlocked of string list

type result = {
  wall_seconds : float;
  outcome : outcome;
  tasks_run : int;
  failures : (string * exn) list;
}

type state = {
  it : Interp.t;
  mu : Mutex.t;
  cond : Condition.t;
  mutable active : int;
  mutable stop : bool;
}

(* Apply [f] under the lock, then wake idle workers. *)
let locked st f =
  Mutex.lock st.mu;
  let v = f () in
  Condition.broadcast st.cond;
  Mutex.unlock st.mu;
  v

(* Run one task entry to its next suspension point.  Returns when the
   task finished or parked; the worker then loops for more work. *)
let exec st entry =
  let leave () = st.active <- st.active - 1 in
  let rec handle (task : Task.t) (step : Eff.step) =
    match step with
    | Eff.Worked (_, k) -> handle task (Eff.resume k)
    | Eff.Finished _ -> locked st (fun () -> Interp.finish st.it task; leave ())
    | Eff.Failed (e, _bt) -> locked st (fun () -> Interp.fail st.it task e; leave ())
    | Eff.Blocked (ev, k) ->
        (* checked and parked in one step under the lock every signal
           takes, so no wake falls in between *)
        let parked =
          locked st (fun () ->
              let parked = not (Event.occurred ev) in
              if parked then begin
                Interp.park st.it task ev k;
                leave ()
              end;
              parked)
        in
        if not parked then handle task (Eff.resume k)
    | Eff.Signaled (ev, k) ->
        ignore (locked st (fun () -> Interp.signal st.it ev));
        handle task (Eff.resume k)
    | Eff.Spawned (task', k) ->
        locked st (fun () -> Interp.spawn st.it task');
        handle task (Eff.resume k)
  in
  (Supervisor.entry_task entry).Task.state <- Task.Running;
  match entry with
  | Supervisor.Fresh task -> handle task (Eff.start task.Task.body)
  | Supervisor.Resumed (task, k) -> handle task (Eff.resume k)

let worker st () =
  let rec loop () =
    Mutex.lock st.mu;
    let rec get () =
      if st.stop then begin
        Mutex.unlock st.mu;
        None
      end
      else
        match Supervisor.pick st.it.Interp.sup with
        | Some entry ->
            st.active <- st.active + 1;
            Mutex.unlock st.mu;
            Some entry
        | None ->
            if st.active = 0 then begin
              (* quiescent: either done or deadlocked (parked or gated
                 tasks whose events nobody will signal) *)
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
      it = Interp.create (Supervisor.create ());
      mu = Mutex.create ();
      cond = Condition.create ();
      active = 0;
      stop = false;
    }
  in
  (* a fresh run that charges no work and records nothing (no domain
     appends to an enclosing log), numbering in the enclosing counters
     so no event it creates shares an id with one [tasks] hold *)
  let obs = Mcc_obs.Evlog.unlogged (Mcc_obs.Evlog.run ()).Mcc_obs.Evlog.obs in
  Eff.within ~obs ~accounting:false Eff.Engine (fun () ->
      List.iter (Interp.spawn st.it) tasks;
      let t0 = Unix.gettimeofday () in
      let workers = List.init (domains - 1) (fun _ -> Domain.spawn (worker st)) in
      worker st ();
      List.iter Domain.join workers;
      let wall = Unix.gettimeofday () -. t0 in
      {
        wall_seconds = wall;
        outcome = Interp.outcome st.it;
        tasks_run = st.it.Interp.n_finished;
        failures = List.rev st.it.Interp.failures;
      })
