(* The virtual-time metrics registry.

   Counters, gauges and fixed-bucket histograms keyed by metric name +
   label set, accumulated while the compiler runs on the DES engine.
   The registry is part of the installed [Evlog] context: a run made
   with [Evlog.ctx ~metrics:true] records into its own registry, and
   outside such a run every recording call is a no-op.  Values measure
   *virtual* quantities (work units, task counts, probe counts): the
   registry itself never charges [Eff.work] and allocates nothing while
   disabled, so a run with telemetry on has exactly the virtual timings
   of a run with it off — the same invariant [Evlog] maintains for the
   event log.

   Hot-path call sites are guarded by [enabled ()] before any label
   list is built, mirroring the [Evlog.enabled] discipline:

     if Metrics.enabled () then
       Metrics.count ~labels:[ ("cls", cls) ] "mcc_sched_dispatch_total" 1.0

   [snapshot] is deterministic: samples sorted by (name, labels), so two
   identical runs export byte-identical text. *)

type histo = Evlog.histo = {
  bounds : float array;
  counts : int array;
  mutable sum : float;
  mutable count : int;
}

type cell = Evlog.cell = Counter of float ref | Gauge of float ref | Histogram of histo

type value =
  | VCounter of float
  | VGauge of float
  | VHistogram of { h_bounds : float array; h_counts : int array; h_sum : float; h_count : int }

type sample = { s_name : string; s_labels : (string * string) list; s_value : value }
type snapshot = sample list

let enabled () = Evlog.registry (Evlog.current ()) != None

(* Default histogram buckets for virtual-work-unit durations: spans the
   cost table from a single dispatch (~15 units) to a whole long
   procedure's code generation. *)
let duration_bounds = [| 100.0; 300.0; 1000.0; 3000.0; 10000.0; 30000.0; 100000.0; 300000.0 |]

let key name labels = (name, List.sort compare labels)

(* The installed registry's cell for [name] + [labels], made on first
   use; [None] outside a registry. *)
let cell name labels make =
  match Evlog.registry (Evlog.current ()) with
  | None -> None
  | Some tbl -> (
      let k = key name labels in
      match Hashtbl.find_opt tbl k with
      | Some c -> Some c
      | None ->
          let c = make () in
          Hashtbl.add tbl k c;
          Some c)

let count ?(labels = []) name v =
  match cell name labels (fun () -> Counter (ref 0.0)) with
  | None -> ()
  | Some (Counter r) -> r := !r +. v
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.count: %s is not a counter" name)

let incr ?labels name = count ?labels name 1.0

let gauge ?(labels = []) name v =
  match cell name labels (fun () -> Gauge (ref v)) with
  | None -> ()
  | Some (Gauge r) -> r := v
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.gauge: %s is not a gauge" name)

(* A high-watermark gauge: keeps the maximum of all reported values. *)
let gauge_max ?(labels = []) name v =
  match cell name labels (fun () -> Gauge (ref v)) with
  | None -> ()
  | Some (Gauge r) -> if v > !r then r := v
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.gauge_max: %s is not a gauge" name)

let observe ?(labels = []) ?(bounds = duration_bounds) name v =
  match
    cell name labels (fun () ->
        Histogram { bounds; counts = Array.make (Array.length bounds + 1) 0; sum = 0.0; count = 0 })
  with
  | None -> ()
  | Some (Histogram h) ->
      let i = ref 0 in
      while !i < Array.length h.bounds && v > h.bounds.(!i) do
        i := !i + 1 (* Stdlib.incr is shadowed by the counter helper *)
      done;
      h.counts.(!i) <- h.counts.(!i) + 1;
      h.sum <- h.sum +. v;
      h.count <- h.count + 1
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.observe: %s is not a histogram" name)

(* Deterministic export of a context's registry: samples sorted by
   (name, labels), [[]] without one.  The cells are copied out, so a
   snapshot is immune to later mutation. *)
let snapshot (c : Evlog.ctx) : snapshot =
  match Evlog.registry c with
  | None -> []
  | Some tbl ->
      Hashtbl.fold
        (fun (name, labels) c acc ->
          let v =
            match c with
            | Counter r -> VCounter !r
            | Gauge r -> VGauge !r
            | Histogram h ->
                VHistogram
                  {
                    h_bounds = Array.copy h.bounds;
                    h_counts = Array.copy h.counts;
                    h_sum = h.sum;
                    h_count = h.count;
                  }
          in
          { s_name = name; s_labels = labels; s_value = v } :: acc)
        tbl []
      |> List.sort (fun a b -> compare (a.s_name, a.s_labels) (b.s_name, b.s_labels))

let with_registry f =
  let c = Evlog.ctx ~metrics:true () in
  let v = Evlog.within c f in
  (v, snapshot c)

(* Snapshot accessors, for tests and reports. *)

let find (snap : snapshot) ?(labels = []) name =
  let labels = List.sort compare labels in
  List.find_opt (fun s -> s.s_name = name && s.s_labels = labels) snap

let counter_value (snap : snapshot) ?labels name =
  match find snap ?labels name with Some { s_value = VCounter v; _ } -> v | _ -> 0.0

(* Sum a counter across all label sets. *)
let counter_total (snap : snapshot) name =
  List.fold_left
    (fun acc s ->
      match s.s_value with VCounter v when s.s_name = name -> acc +. v | _ -> acc)
    0.0 snap
