(* One workload in this process: set-up, an untimed warm-up, then
   timed (or traced) rounds within [seconds] of the run's start, set-up
   and warm-up included; then the metrics, printed one per line and as
   the final JSON result line. *)

module J = Mcc_obs.Json
module W = Workloads
module Quantile = Mcc_util.Quantile

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** smoke size: no warm-up, one round (two for vm-kernels) *)
  out : string option;  (** where to write this run's results object *)
}

(* One reported metric: its value and the per-round samples it
   summarises, plus for latencies the pooled per-operation figures. *)
type stat = {
  metric : Catalog.metric;
  value : float;
  samples : float list;
  pooled : float list option;  (** every operation's latency, ms *)
}

let finite f = if Float.is_finite f then f else 0.0

let stat name ?pooled value samples =
  match Catalog.find name with
  | Some metric -> { metric; value = finite value; samples = List.map finite samples; pooled }
  | None -> invalid_arg ("Run.stat: metric not in the catalog: " ^ name)

(* Rounds for as long as the next one, if it takes as long as the last,
   ends within [seconds] of [start] (at least one), or the workload's
   smoke rounds.  [between] runs after each round, outside its timers. *)
let repeat_rounds cfg (w : W.t) ~start ?(between = ignore) f =
  let limit = if cfg.smoke then w.W.smoke_rounds else max_int in
  let rec go acc n last =
    let t0 = Timing.now () in
    let out_of_time = n > 0 && (not cfg.smoke) && t0 -. start +. last > cfg.seconds in
    if n >= limit || out_of_time then List.rev acc
    else begin
      let r = f () in
      between ();
      go (r :: acc) (n + 1) (Timing.now () -. t0)
    end
  in
  go [] 0 0.0

(* Set-up time is the median of the run's first set-up, whose instance
   the run uses, and of spare set-ups: one after every timed round, so
   that they meet the machine as the rounds do, and more at the end if
   there are fewer than five in all.  A spare set-up's checks are not
   counted. *)
let timed_stats cfg (w : W.t) (env : W.env) ~start =
  let inst, first = Timing.time (fun () -> w.W.setup env) in
  let spare_env = { env with W.checks = { W.attempted = 0; failed = 0 } } in
  let setups = ref [ first ] in
  let spare () = setups := snd (Timing.time (fun () -> ignore (w.W.setup spare_env))) :: !setups in
  if not cfg.smoke then inst.W.warm_up ();
  let rounds =
    repeat_rounds cfg w ~start ~between:(if cfg.smoke then ignore else spare) inst.W.round
  in
  while (not cfg.smoke) && List.length !setups < 5 do
    spare ()
  done;
  let setups = !setups in
  let per_round_p50 = List.map (fun (r : W.round) -> W.ms (Timing.median r.W.ops)) rounds in
  let pooled = List.concat_map (fun (r : W.round) -> List.map W.ms r.W.ops) rounds in
  let walls = List.map (fun (r : W.round) -> r.W.wall) rounds in
  let rss = Timing.peak_rss_mb () in
  let detail_names =
    match rounds with r :: _ -> List.map fst r.W.detail | [] -> []
  in
  let detail =
    List.map
      (fun name ->
        let xs = List.map (fun (r : W.round) -> List.assoc name r.W.detail) rounds in
        stat name (Timing.median xs) xs)
      detail_names
  in
  ( List.length rounds,
    [
      stat "round_s" (Timing.median walls) walls;
      stat "op_ms_p50" (Timing.median per_round_p50) per_round_p50 ~pooled;
      stat "peak_rss_mb" rss [ rss ];
      stat "setup_s" (Timing.median setups) setups;
    ]
    @ detail )

let traced_stats cfg (w : W.t) (env : W.env) ~start =
  let inst = w.W.setup env in
  if not cfg.smoke then inst.W.warm_up ();
  let rounds = repeat_rounds cfg w ~start inst.W.traced in
  ( List.length rounds,
    List.map
      (fun (m : Catalog.metric) ->
        let value r = Option.value (List.assoc_opt m.Catalog.name r) ~default:0.0 in
        let xs = List.map value rounds in
        stat m.Catalog.name (Timing.median xs) xs)
      Catalog.per_layer )

(* "workload metric value unit (n=samples, p50=..., pNN=...)"; the
   value is the p50, and a latency's count and tail are over the pooled
   operations. *)
let print_stat workload s =
  let xs = Option.value s.pooled ~default:s.samples in
  let a = Quantile.sorted_of_list xs in
  let tail =
    match Timing.p_hi (Array.length a) with
    | Some p -> Printf.sprintf ", p%g=%.6g" p (Quantile.percentile p a)
    | None -> ""
  in
  Printf.printf "%s %s %.6g %s (n=%d, p50=%.6g%s)\n" workload s.metric.Catalog.name s.value
    s.metric.Catalog.unit (Array.length a) s.value tail

(* The cost model's layer shares next to the measured ones. *)
let print_model_table workload stats =
  let v name = (List.find (fun s -> s.metric.Catalog.name = name) stats).value in
  Printf.printf "%s model fidelity: layer real_share virtual_share ratio\n" workload;
  List.iter
    (fun l ->
      let ratio = v (Printf.sprintf "model.%s.share_ratio" l) in
      Printf.printf "%s model %-5s %6.3f %6.3f %6.2f%s\n" workload l
        (v (Printf.sprintf "model.%s.real_share" l))
        (v (Printf.sprintf "model.%s.virtual_share" l))
        ratio
        (if ratio < 0.5 || ratio > 2.0 then "  FLAG: outside [0.5, 2]" else ""))
    Catalog.model_layers

let num f = if Float.is_finite f then J.Float f else J.Null

let results_json cfg (w : W.t) ~rounds ~(checks : W.checks) stats =
  J.Obj
    [
      ("workload", J.Str w.W.name);
      ("seed", J.Int cfg.seed);
      ("trace", J.Int (if cfg.trace then 1 else 0));
      ("seconds", num cfg.seconds);
      ("rounds", J.Int rounds);
      ("attempted", J.Int checks.W.attempted);
      ("failed", J.Int checks.W.failed);
      ( "metrics",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.Str s.metric.Catalog.name);
                   ("unit", J.Str s.metric.Catalog.unit);
                   ("value", num s.value);
                   ("samples", J.Arr (List.map num s.samples));
                 ])
             stats) );
    ]

(* The last line of standard output: exactly [correct], [attempted],
   [failed] and [metrics], each value with all its digits. *)
let result_line ~(checks : W.checks) stats =
  let metric s =
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" s.metric.Catalog.name s.value
      s.metric.Catalog.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (checks.W.failed = 0) checks.W.attempted checks.W.failed
    (String.concat ", " (List.map metric stats))

let run cfg (w : W.t) =
  let start = Timing.now () in
  let work = Filename.concat Files.scratch (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Files.rm_rf work;
  Files.mkdir_p work;
  Fun.protect
    ~finally:(fun () ->
      Files.rm_rf work;
      Files.tidy_scratch ())
    (fun () ->
      let checks = { W.attempted = 0; failed = 0 } in
      let env = { W.seed = cfg.seed; smoke = cfg.smoke; work; checks } in
      let rounds, stats =
        if cfg.trace then traced_stats cfg w env ~start else timed_stats cfg w env ~start
      in
      let failed_share = W.ratio (float_of_int checks.W.failed) (float_of_int checks.W.attempted) in
      let shown =
        if cfg.trace then stats
        else stats @ [ stat Catalog.failed_share.Catalog.name failed_share [ failed_share ] ]
      in
      List.iter (print_stat w.W.name) shown;
      if cfg.trace then print_model_table w.W.name stats;
      Printf.printf "%s checks: %d attempted, %d failed; %d rounds\n" w.W.name checks.W.attempted
        checks.W.failed rounds;
      Option.iter
        (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (J.to_string (results_json cfg w ~rounds ~checks shown))))
        cfg.out;
      let listed = if cfg.trace then Catalog.per_layer else Catalog.end_to_end in
      print_endline (result_line ~checks (List.filter (fun s -> List.mem s.metric listed) stats)))
