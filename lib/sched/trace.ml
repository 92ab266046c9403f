(* Per-processor activity segments, rebuilt from a captured event log.

   The DES engine records one [Busy] record per stretch of activity on a
   simulated processor; this module reads them back into segments for
   the WatchTool-style activity views (paper Figures 4 and 7), the
   Chrome export and utilization statistics. *)

module Evlog = Mcc_obs.Evlog

type seg_kind =
  | Run (* executing compiler work *)
  | Waitbar (* bound to a task but waiting on a barrier event *)

type seg = {
  proc : int;
  task_id : int;
  cls : Task.cls;
  t0 : float;
  t1 : float;
  kind : seg_kind;
}

type t = { segs : seg list; horizon : float }

let of_log (log : Evlog.record array) =
  let classes = Hashtbl.create 64 in
  let segs = ref [] and horizon = ref 0.0 in
  Array.iter
    (fun (r : Evlog.record) ->
      match r.Evlog.kind with
      | Evlog.Task_spawn { task; cls; _ } ->
          Hashtbl.replace classes task (List.find (fun c -> Task.cls_name c = cls) Task.classes)
      | Evlog.Busy { proc; task; t0; t1; barrier } ->
          let kind = if barrier then Waitbar else Run in
          (* contiguous same-task activity on the same processor merges
             into the previous segment, to keep traces compact *)
          if t1 > t0 then
            segs :=
              (match !segs with
              | last :: rest
                when last.proc = proc && last.task_id = task && last.kind = kind && last.t1 = t0 ->
                  { last with t1 } :: rest
              | l -> { proc; task_id = task; cls = Hashtbl.find classes task; t0; t1; kind } :: l);
          if t1 > !horizon then horizon := t1
      | _ -> ())
    log;
  { segs = List.rev !segs; horizon = !horizon }

(* Busy (Run) time summed per processor, over [procs] x the makespan. *)
let utilization t ~procs =
  if t.horizon <= 0.0 then 0.0
  else begin
    let busy = Array.make procs 0.0 in
    List.iter
      (fun s ->
        if s.kind = Run && s.proc < procs then busy.(s.proc) <- busy.(s.proc) +. (s.t1 -. s.t0))
      t.segs;
    Array.fold_left ( +. ) 0.0 busy /. (t.horizon *. float_of_int procs)
  end

(* Busy time per task class, across all processors. *)
let busy_per_class t =
  let busy = Array.make Task.n_classes 0.0 in
  List.iter
    (fun s ->
      if s.kind = Run then
        let i = Task.cls_priority s.cls in
        busy.(i) <- busy.(i) +. (s.t1 -. s.t0))
    t.segs;
  busy
