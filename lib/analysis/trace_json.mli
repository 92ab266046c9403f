(** Chrome trace_event export of a DES execution trace.

    One ["X"] (complete) duration event per trace segment — the
    simulated processor is the thread id — plus thread_name metadata.
    Load in chrome://tracing or ui.perfetto.dev for the WatchTool-style
    activity view (paper Figures 4 and 7).  Timestamps are microseconds
    of simulated time. *)

(** [export ~names ~log trace] renders the JSON document.  [names] maps
    task ids to display names (e.g.
    [Mcc_core.Driver.result.task_index]); unmapped ids render as
    ["task#N"].  When [log] is a captured event log, its fault-recovery
    records (injections, retries, quarantines, watchdog rescues) are
    added as global instant events. *)
val export :
  ?names:(int * string) list -> ?log:Mcc_obs.Evlog.record array -> Mcc_sched.Trace.t -> string

(** [export_spans ~sec_per_unit forest] renders an assembled
    distributed-trace forest ([Mcc_obs.Dtrace.assemble]) as correctly
    nested Chrome trace events.  Each root span is a thread lane on
    pid 0 with its subtree as nested ["X"] events; every inner engine
    (a [Driver.compile] captured under a traced serve/farm run —
    invisible to {!export}, which sees one engine's clock) becomes its
    own process, one thread row per inner task, rebased onto the outer
    virtual-time axis; overlapping rpc legs export as async ["b"]/["e"]
    pairs so they cannot corrupt same-lane nesting. *)
val export_spans : sec_per_unit:float -> Mcc_obs.Dtrace.t -> string
