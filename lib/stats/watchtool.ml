(* WatchTool: ASCII rendering of processor activity over time.

   Reproduces the paper's Figures 4 and 7 — "processor activity (vertical
   axis) as a function of time (horizontal axis)" with bars for the
   different kinds of compiler activity — from the segments
   [Trace.of_log] rebuilds out of a captured event log.  Each
   processor is one row; each column is a time bucket painted with the
   character of the task class that was busiest in that bucket:

     L lexical analysis        S splitter        I importer
     d definition-module parse/declaration analysis
     M module parse/declaration analysis
     p procedure parse/declaration analysis
     G long-procedure statement analysis / code generation
     g short-procedure statement analysis / code generation
     m merge      . auxiliary      ~ barrier wait      (space) idle *)

open Mcc_sched

let class_char = function
  | Task.Lexor -> 'L'
  | Task.Splitter -> 'S'
  | Task.Importer -> 'I'
  | Task.DefParse -> 'd'
  | Task.ModParse -> 'M'
  | Task.ProcParse -> 'p'
  | Task.LongGen -> 'G'
  | Task.ShortGen -> 'g'
  | Task.Merge -> 'm'
  | Task.Aux -> '.'

let legend =
  "L=lexor S=splitter I=importer d=defparse M=modparse p=procparse G=long-gen g=short-gen \
   m=merge ~=barrier-wait"

(* Render the trace as one row per processor and [width] time buckets. *)
let render ?(width = 100) (trace : Trace.t) ~procs =
  let horizon = trace.Trace.horizon in
  if horizon <= 0.0 then "(empty trace)"
  else begin
    (* per processor, per bucket: busy time per class (+1 row for waits) *)
    let buckets = Array.init procs (fun _ -> Array.make_matrix width (Task.n_classes + 1) 0.0) in
    let bucket_w = horizon /. float_of_int width in
    List.iter
      (fun (s : Trace.seg) ->
        if s.Trace.proc < procs then begin
          let cls_idx =
            match s.Trace.kind with
            | Trace.Run -> Task.cls_priority s.Trace.cls
            | Trace.Waitbar -> Task.n_classes
          in
          let b0 = int_of_float (s.Trace.t0 /. bucket_w) in
          let b1 = min (width - 1) (int_of_float (s.Trace.t1 /. bucket_w)) in
          for b = max 0 b0 to b1 do
            let lo = float_of_int b *. bucket_w and hi = float_of_int (b + 1) *. bucket_w in
            let overlap = min hi s.Trace.t1 -. max lo s.Trace.t0 in
            if overlap > 0.0 then
              buckets.(s.Trace.proc).(b).(cls_idx) <- buckets.(s.Trace.proc).(b).(cls_idx) +. overlap
          done
        end)
      trace.Trace.segs;
    let buf = Buffer.create (procs * (width + 16)) in
    for p = 0 to procs - 1 do
      Buffer.add_string buf (Printf.sprintf "P%d |" p);
      for b = 0 to width - 1 do
        let cell = buckets.(p).(b) in
        let best = ref (-1) and best_t = ref 0.0 in
        Array.iteri
          (fun i t ->
            if t > !best_t then begin
              best := i;
              best_t := t
            end)
          cell;
        let ch =
          if !best < 0 || !best_t < bucket_w *. 0.05 then ' '
          else if !best = Task.n_classes then '~'
          else
            class_char (List.nth Task.classes !best)
        in
        Buffer.add_char buf ch
      done;
      Buffer.add_string buf "|\n"
    done;
    Buffer.add_string buf
      (Printf.sprintf "    0%s%.2fs (virtual)\n"
         (String.make (max 1 (width - 14)) '-')
         (Costs.to_seconds horizon));
    Buffer.contents buf
  end

(* Utilization summary line for a trace. *)
let summary (trace : Trace.t) ~procs =
  let util = Trace.utilization trace ~procs in
  let per_class = Trace.busy_per_class trace in
  let total = Array.fold_left ( +. ) 0.0 per_class in
  let share cls =
    if total <= 0.0 then 0.0 else 100.0 *. per_class.(Task.cls_priority cls) /. total
  in
  Printf.sprintf
    "utilization %.1f%%  (lex %.1f%%, split %.1f%%, import %.1f%%, parse/decl %.1f%%, stmt/gen %.1f%%, merge %.1f%%)"
    (100.0 *. util) (share Task.Lexor) (share Task.Splitter) (share Task.Importer)
    (share Task.DefParse +. share Task.ModParse +. share Task.ProcParse)
    (share Task.LongGen +. share Task.ShortGen)
    (share Task.Merge)
