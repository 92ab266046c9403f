(* The step interpreter both engines share: the Supervisors rules
   (paper §2.3.2–§2.3.4) once, as transitions over the Supervisor and
   the waiter table.  The DES and the domain engine each drive them from
   their own loop (see interp.mli). *)

module Evlog = Mcc_obs.Evlog
module Metrics = Mcc_obs.Metrics

type outcome = Completed | Deadlocked of string list

type t = {
  sup : Supervisor.t;
  waiting : (int, (Task.t * Eff.resumption) list) Hashtbl.t;
  events_seen : (int, Event.t) Hashtbl.t;
  mutable n_finished : int;
  mutable handled_blocks : int;
  mutable failures : (string * exn) list;
}

let create sup =
  {
    sup;
    waiting = Hashtbl.create 64;
    events_seen = Hashtbl.create 64;
    n_finished = 0;
    handled_blocks = 0;
    failures = [];
  }

let spawn st (task : Task.t) =
  if Evlog.enabled () then
    Evlog.emit
      (Evlog.Task_spawn
         {
           task = task.Task.id;
           name = task.Task.name;
           cls = Task.cls_name task.Task.cls;
           gate = (match task.Task.gate with Some g -> g.Event.id | None -> -1);
         });
  Supervisor.submit st.sup task

let block st (task : Task.t) (ev : Event.t) =
  Hashtbl.replace st.events_seen ev.Event.id ev;
  if Evlog.enabled () then
    Evlog.emit
      (Evlog.Ev_block { ev = ev.Event.id; name = ev.Event.name; producer = ev.Event.producer });
  if Metrics.enabled () then
    Metrics.incr
      ~labels:[ ("kind", if ev.Event.kind = Event.Barrier then "barrier" else "handled") ]
      "mcc_sched_block_total";
  task.Task.state <- Task.Blocked

let park st task (ev : Event.t) k =
  block st task ev;
  st.handled_blocks <- st.handled_blocks + 1;
  let l = Option.value ~default:[] (Hashtbl.find_opt st.waiting ev.Event.id) in
  Hashtbl.replace st.waiting ev.Event.id ((task, k) :: l);
  Supervisor.prefer st.sup ev.Event.producer

(* Woken continuations go back to the ready structure at the front of
   their class. *)
let wake ?(on_wake = ignore) st ev_id =
  match Hashtbl.find_opt st.waiting ev_id with
  | None -> ()
  | Some waiters ->
      Hashtbl.remove st.waiting ev_id;
      List.iter
        (fun ((task : Task.t), k) ->
          on_wake task;
          if Evlog.enabled () then Evlog.emit (Evlog.Ev_wake { ev = ev_id; task = task.Task.id });
          if Metrics.enabled () then Metrics.incr "mcc_sched_wake_total";
          Supervisor.resume st.sup task k)
        waiters

let signal ?(dropped = fun _ -> false) st (ev : Event.t) =
  if Event.occurred ev then false
  else begin
    Event.mark ev;
    if Evlog.enabled () then
      Evlog.emit (Evlog.Ev_signal { ev = ev.Event.id; name = ev.Event.name });
    if Metrics.enabled () then Metrics.incr "mcc_sched_signal_total";
    Supervisor.on_event st.sup ev;
    if not (dropped ev) then wake st ev.Event.id;
    true
  end

let finish st (task : Task.t) =
  if Evlog.enabled () then Evlog.emit (Evlog.Task_finish { task = task.Task.id });
  if Metrics.enabled () then
    Metrics.incr ~labels:[ ("cls", Task.cls_name task.Task.cls) ] "mcc_task_finish_total";
  task.Task.state <- Task.Done;
  st.n_finished <- st.n_finished + 1

let fail st (task : Task.t) e =
  st.failures <- (task.Task.name, e) :: st.failures;
  finish st task

let deadlock_report barriers st =
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
  let line verb ev_id name = Printf.sprintf "%s %s %s" name verb (ev_desc ev_id) in
  let waits =
    Hashtbl.fold
      (fun ev_id waiters acc ->
        List.map (fun ((t : Task.t), _) -> line "waits on" ev_id t.name) waiters @ acc)
      st.waiting []
  and bars = List.map (fun (ev_id, (t : Task.t)) -> line "barrier-waits on" ev_id t.name) barriers
  and gates =
    List.concat_map
      (fun (ev_id, names) -> List.map (line "gated on" ev_id) names)
      (Supervisor.gated_events st.sup)
  in
  List.sort compare (waits @ bars @ gates)

let outcome ?(barriers = []) st =
  match deadlock_report barriers st with [] -> Completed | stuck -> Deadlocked stuck
