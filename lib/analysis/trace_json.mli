(** Chrome trace_event export of a captured DES event log.

    One ["X"] (complete) duration event per processor-activity segment
    ({!Mcc_sched.Trace.of_log}) — the simulated processor is the thread
    id — plus thread_name metadata.  Load in chrome://tracing or
    ui.perfetto.dev for the WatchTool-style activity view (paper
    Figures 4 and 7).  Timestamps are microseconds of simulated time. *)

(** [export log] renders the JSON document.  Events are named after
    their task's [Task_spawn] record ("task#N" for a task without
    one); the log's fault-recovery records (injections, retries,
    quarantines, watchdog rescues) become global instant events. *)
val export : Mcc_obs.Evlog.record array -> string

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
