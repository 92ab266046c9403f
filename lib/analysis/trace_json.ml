(* Chrome trace_event export.

   Renders the processor activity of a captured DES event log as the
   Chrome tracing / Perfetto JSON format ("trace event format",
   JSON-array flavor): one "X" (complete) duration event per segment
   [Trace.of_log] rebuilds, with the simulated processor as the thread
   id and the task's [Task_spawn] name as the event name, plus
   thread_name metadata rows.  Load the output in
   chrome://tracing or ui.perfetto.dev for the WatchTool-style activity
   view of paper Figures 4 and 7.

   Timestamps are microseconds of *simulated* time (virtual work units
   scaled by Costs.seconds_per_unit). *)

open Mcc_sched
module Evlog = Mcc_obs.Evlog

module Json = Mcc_obs.Json

(* The one document writer: the JSON-array flavor of the trace event
   format, one event per line.  [body emit] emits the events in order. *)
let document body =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  body (fun line ->
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      Buffer.add_string buf line);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let micros units = Costs.to_seconds units *. 1e6

let export (log : Evlog.record array) : string =
  let names = Hashtbl.create 64 in
  Array.iter
    (fun (r : Evlog.record) ->
      match r.Evlog.kind with
      | Evlog.Task_spawn { task; name; _ } -> Hashtbl.replace names task name
      | _ -> ())
    log;
  let task_name id =
    match Hashtbl.find_opt names id with Some n -> n | None -> Printf.sprintf "task#%d" id
  in
  let segs = (Trace.of_log log).Trace.segs in
  let procs = List.fold_left (fun acc (s : Trace.seg) -> max acc (s.Trace.proc + 1)) 0 segs in
  document @@ fun emit ->
  for p = 0 to procs - 1 do
    emit
      (Printf.sprintf
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"proc \
          %d\"}}"
         p p)
  done;
  List.iter
    (fun (s : Trace.seg) ->
      let kind = match s.Trace.kind with Trace.Run -> "run" | Trace.Waitbar -> "waitbar" in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"task\":%d,\"kind\":\"%s\"}}"
           (Json.escape (task_name s.Trace.task_id))
           (Json.escape (Task.cls_name s.Trace.cls))
           (micros s.Trace.t0)
           (micros (s.Trace.t1 -. s.Trace.t0))
           s.Trace.proc s.Trace.task_id kind))
    segs;
  (* fault-recovery records become global instant ("i") events, so
     injections, retries and watchdog rescues are visible against the
     activity lanes *)
  Array.iter
    (fun (r : Evlog.record) ->
      let instant name detail =
        emit
          (Printf.sprintf
             "{\"name\":\"%s\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":%.3f,\"pid\":0,\"args\":{\"detail\":\"%s\"}}"
             (Json.escape name) (micros r.Evlog.time) (Json.escape detail))
      in
      match r.Evlog.kind with
      | Evlog.Fault_inject { fault; victim } -> instant ("inject:" ^ fault) victim
      | Evlog.Task_retry { task; attempt } ->
          instant "retry" (Printf.sprintf "%s (attempt %d)" (task_name task) attempt)
      | Evlog.Task_quarantine { name; _ } -> instant "quarantine" name
      | Evlog.Watchdog_fire { task; _ } -> instant "watchdog" (task_name task)
      | _ -> ())
    log

(* Nested export of an assembled distributed-trace forest.

   The single-engine [export] renders one log, but a serve or farm run
   keeps each inner engine's log apart (every compile records into its
   own context, on a clock restarted at 0), and flattening several such
   logs into one lane would interleave those clocks.  This export works
   from the [Dtrace] forest instead, where [Dtrace.assemble] has already
   rebased every inner engine onto the outer virtual-time axis:

   - each root span (a served job, the farm run) is a thread lane on
     pid 0, its tile/annotation subtree as nested "X" events — Chrome
     nests same-lane X events by interval containment, which the
     forest's containment invariant guarantees;
   - rpc attempt/hedge legs deliberately overlap, which would corrupt
     same-lane nesting, so they export as async "b"/"e" pairs;
   - each inner engine (a captured [Driver.compile]) becomes its own
     process (pid = owning span id) with one thread row per inner task,
     so suspended-engine work that used to vanish now nests, correctly
     rebased, under the span that paid for it. *)
let export_spans ~sec_per_unit (t : Mcc_obs.Dtrace.t) : string =
  let module D = Mcc_obs.Dtrace in
  let micros u = u *. sec_per_unit *. 1e6 in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (s : D.span) -> Hashtbl.replace by_id s.D.d_span s) t.D.spans;
  let rec root_of (s : D.span) =
    if s.D.d_parent < 0 then s.D.d_span
    else
      match Hashtbl.find_opt by_id s.D.d_parent with
      | Some p -> root_of p
      | None -> s.D.d_span
  in
  document @@ fun emit ->
  List.iter
    (fun (r : D.span) ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"%s \
            [%s]\"}}"
           r.D.d_span (Json.escape r.D.d_name) (Json.escape r.D.d_trace)))
    (D.roots t);
  (* parents before children at equal start times, so same-lane X
     events nest instead of fighting for the slot *)
  let ordered =
    List.sort
      (fun (a : D.span) b ->
        compare (a.D.d_t0, -.a.D.d_t1, a.D.d_span) (b.D.d_t0, -.b.D.d_t1, b.D.d_span))
      t.D.spans
  in
  (* inner engines: one process per owning span, one thread per task *)
  let inner_tid = Hashtbl.create 64 in
  let inner_count = Hashtbl.create 16 in
  List.iter
    (fun (s : D.span) ->
      if s.D.d_kind = "inner-task" then begin
        let k = Option.value ~default:0 (Hashtbl.find_opt inner_count s.D.d_parent) in
        if k = 0 then
          emit
            (Printf.sprintf
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"inner \
                engine of span #%d%s\"}}"
               s.D.d_parent s.D.d_parent
               (match Hashtbl.find_opt by_id s.D.d_parent with
               | Some p -> Json.escape (" · " ^ p.D.d_name)
               | None -> ""));
        Hashtbl.replace inner_count s.D.d_parent (k + 1);
        Hashtbl.replace inner_tid s.D.d_span k;
        emit
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             s.D.d_parent k (Json.escape s.D.d_name))
      end)
    ordered;
  List.iter
    (fun (s : D.span) ->
      let args =
        Printf.sprintf
          "{\"span\":%d,\"kind\":\"%s\",\"status\":\"%s\",\"node\":%d,\"trace\":\"%s\"}"
          s.D.d_span (Json.escape s.D.d_kind) (Json.escape s.D.d_status) s.D.d_node
          (Json.escape s.D.d_trace)
      in
      match s.D.d_kind with
      | "rpc" ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"rpc\",\"ph\":\"b\",\"id\":%d,\"ts\":%.3f,\"pid\":0,\"tid\":%d,\"args\":%s}"
               (Json.escape s.D.d_name) s.D.d_span (micros s.D.d_t0) (root_of s) args);
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"rpc\",\"ph\":\"e\",\"id\":%d,\"ts\":%.3f,\"pid\":0,\"tid\":%d}"
               (Json.escape s.D.d_name) s.D.d_span (micros s.D.d_t1) (root_of s))
      | "inner-task" ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"inner\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":%s}"
               (Json.escape s.D.d_name) (micros s.D.d_t0)
               (micros (s.D.d_t1 -. s.D.d_t0))
               s.D.d_parent
               (Option.value ~default:0 (Hashtbl.find_opt inner_tid s.D.d_span))
               args)
      | _ ->
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":%s}"
               (Json.escape s.D.d_name) (Json.escape s.D.d_kind) (micros s.D.d_t0)
               (micros (s.D.d_t1 -. s.D.d_t0))
               (root_of s) args))
    ordered
