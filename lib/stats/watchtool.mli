(** WatchTool: ASCII rendering of processor activity over time,
    reproducing the paper's Figures 4 and 7 from the processor activity
    in a captured event log ({!Mcc_sched.Trace.of_log}) — one row
    per processor, one column per time bucket, painted with the
    character of the busiest task class in the bucket. *)

(** Display character per task class. *)
val class_char : Mcc_sched.Task.cls -> char

(** One-line key for the characters used. *)
val legend : string

(** Render the trace ([width] buckets, default 100). *)
val render : ?width:int -> Mcc_sched.Trace.t -> procs:int -> string

(** One-line utilization summary with a per-phase busy-share breakdown. *)
val summary : Mcc_sched.Trace.t -> procs:int -> string
