(* [compare BASE.json NEW.json]: for each (workload, metric) present in
   both results files, both medians and quartiles and a verdict.

   The bound is BENCHMARK.json's for its end-to-end metrics (the gated
   ones), its [round_s] bound for the other timings, and 0 for
   [failed_share]; per-layer metrics have none.  A metric whose quartile
   spread, as a share of its median, is wider than its bound on either
   side is "unresolved", unless every new sample beats every base
   sample.  Otherwise a change larger than the bound is "worse" or
   "improved", and anything smaller is "unchanged". *)

open Jsonp

type side = { value : float; q1 : float; q3 : float; samples : float list }

let side_of metric =
  let samples = List.filter_map to_float (to_list (field "samples" metric)) in
  let value = Option.value (num "value" metric) ~default:nan in
  let q1, q3 = if samples = [] then (value, value) else Timing.quartiles samples in
  { value; q1; q3; samples }

let spread s = if s.value = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.value

(* Positive when [n] is worse than [b]. *)
let change better b n =
  let d =
    match better with Catalog.Lower -> n.value -. b.value | Catalog.Higher -> b.value -. n.value
  in
  if b.value = 0.0 then d else d /. Float.abs b.value

let verdict better bound b n =
  match bound with
  | None -> "info"
  | Some bound ->
      let c = change better b n in
      let beats x y = match better with Catalog.Lower -> x < y | Catalog.Higher -> x > y in
      let all_better =
        n.samples <> [] && b.samples <> []
        && List.for_all (fun x -> List.for_all (fun y -> beats x y) b.samples) n.samples
      in
      if Float.max (spread b) (spread n) > bound then
        if all_better then "improved" else "unresolved"
      else if c > bound then "worse"
      else if -.c > bound then "improved"
      else "unchanged"

(* (name, bound) of BENCHMARK.json's end-to-end metrics. *)
let gated_bounds () =
  Jsonp.parse_file "BENCHMARK.json" |> field "end_to_end" |> to_list
  |> List.filter_map (fun m ->
         match (str "name" m, num "bound" m) with
         | Some name, Some bound -> Some (name, bound)
         | _ -> None)

let runs file =
  Jsonp.parse_file file |> field "runs" |> to_list
  |> List.filter_map (fun r -> Option.map (fun w -> (w, r)) (str "workload" r))

let metrics run =
  to_list (field "metrics" run)
  |> List.filter_map (fun m -> Option.map (fun name -> (name, m)) (str "name" m))

(* Prints the table; returns the number of gated metrics judged worse. *)
let run base_file new_file =
  let gated = gated_bounds () in
  let bound_of (metric : Catalog.metric) =
    match List.assoc_opt metric.Catalog.name gated with
    | Some b -> Some b
    | None when metric = Catalog.failed_share -> Some 0.0
    | None when List.mem metric Catalog.detail -> List.assoc_opt "round_s" gated
    | None -> None
  in
  let news = runs new_file in
  Printf.printf "%-14s %-24s %-8s %28s %28s %8s %6s  %s\n" "workload" "metric" "unit"
    "base p50 [q1, q3]" "new p50 [q1, q3]" "change" "bound" "verdict";
  let fmt s = Printf.sprintf "%.5g [%.5g, %.5g]" s.value s.q1 s.q3 in
  let worse = ref 0 in
  List.iter
    (fun (workload, base_run) ->
      match List.assoc_opt workload news with
      | None -> Printf.printf "%-14s (absent from %s)\n" workload new_file
      | Some new_run ->
          let new_metrics = metrics new_run in
          List.iter
            (fun (name, bm) ->
              match (List.assoc_opt name new_metrics, Catalog.find name) with
              | Some nm, Some metric ->
                  let is_gated = List.mem_assoc name gated in
                  let bound = bound_of metric in
                  let b = side_of bm and n = side_of nm in
                  let v = verdict metric.Catalog.better bound b n in
                  if is_gated && v = "worse" then incr worse;
                  Printf.printf "%-14s %-24s %-8s %28s %28s %+7.1f%% %6s  %s%s\n" workload name
                    metric.Catalog.unit (fmt b) (fmt n)
                    (100.0 *. change metric.Catalog.better b n)
                    (match bound with Some x -> Printf.sprintf "%.0f%%" (100.0 *. x) | None -> "-")
                    v
                    (if is_gated then " (gated)" else "")
              | _ -> ())
            (metrics base_run))
    (runs base_file);
  !worse
