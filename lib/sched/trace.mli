(** Per-processor activity segments, rebuilt from a captured event log:
    the raw material for the WatchTool activity views (paper Figs. 4
    and 7), utilization statistics and the Chrome export.  The DES
    records what ran when only as [Busy] records in the
    {!Mcc_obs.Evlog}; this module reads them back. *)

type seg_kind =
  | Run  (** executing compiler work *)
  | Waitbar  (** bound to a task but waiting on a barrier event *)

type seg = {
  proc : int;
  task_id : int;
  cls : Task.cls;  (** from the task's [Task_spawn] record *)
  t0 : float;
  t1 : float;
  kind : seg_kind;
}

type t = {
  segs : seg list;  (** in recording order *)
  horizon : float;  (** latest segment end *)
}

(** The segments of a log's [Busy] records, in order; a segment
    contiguous with the previous one (same processor, task and kind)
    extends it.  Each task's [Task_spawn] record must come before its
    first [Busy] record, as the DES emits them.  Empty for a log
    captured without the DES. *)
val of_log : Mcc_obs.Evlog.record array -> t

(** Mean processor utilization over the makespan, in [0, 1]. *)
val utilization : t -> procs:int -> float

(** Busy time per task class (indexed by {!Task.cls_priority}). *)
val busy_per_class : t -> float array
