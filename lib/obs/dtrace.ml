(* Distributed-trace assembly: the span forest behind `m2c trace`.

   A traced serve or farm run brackets every unit of a request's life
   with [Evlog.Span_start]/[Span_end] pairs ([Trace_ctx] ids), and runs
   each nested [Driver.compile] with [~capture], in an observation
   context of its own; the inner log rides along as a [sub] keyed by
   the owning span.  [assemble] folds the outer log plus the
   sub-logs into one forest of spans on a single virtual-time axis —
   inner task spans are rebased at the owning span's start (and
   stretched by the gray-failure slowdown where the farm applied one),
   so a compile's intra-engine schedule nests exactly inside the
   service span that paid for it.

   Span kinds split in two:

   - *tile kinds* must exactly partition their parent: a job is tiled
     by queue + service; a service by probe / compile / retry; a farm
     task (and the final assembly) by fetch + compute.  Zero gap, zero
     overlap — [tiling_violations] enforces it, and the BENCH_trace
     gate rides on it: every virtual second of a job's sojourn is
     attributed, or the bench fails.
   - *annotation kinds* (rpc attempt/hedge legs, inner engine tasks)
     are containment-only: a hedged fetch deliberately overlaps the
     primary's retry timeline, and inner tasks run concurrently.

   Everything here is in Evlog virtual-time units; renderers take
   [sec_per_unit] to print seconds.  All output is deterministic:
   span ids are allocation-ordered, children sort by (t0, id), floats
   format through [Json]. *)

type span = {
  d_span : int;
  d_parent : int; (* -1 = root *)
  d_trace : string;
  d_name : string;
  d_kind : string;
  d_node : int; (* -1 = not node-bound *)
  d_t0 : float; (* virtual units *)
  d_t1 : float;
  d_status : string; (* "ok", "hit", "shed", "deadline", "crashed", "lost", ... *)
}

(* A nested engine capture owned by one span: [sub_t0] is the owner's
   absolute start (units); [sub_scale] stretches inner units to outer
   ones (a gray-failed farm node compiles [Costs.node_slow_factor]x
   slower than its inner simulation). *)
type sub = {
  sub_owner : int;
  sub_t0 : float;
  sub_scale : float;
  sub_log : Evlog.record array;
}

type t = {
  spans : span list; (* ascending span id *)
  end_time : float; (* last span end / last record, units *)
}

let duration s = s.d_t1 -. s.d_t0

let eps t = 1e-9 *. Float.max 1.0 t.end_time

(* Tiling relation: which child kinds must partition which parents. *)
let is_tile ~parent_kind ~child_kind =
  match (parent_kind, child_kind) with
  | "job", ("queue" | "service") -> true
  | "service", ("probe" | "compile" | "retry") -> true
  | ("task" | "assembly"), ("fetch" | "compute") -> true
  | _ -> false

let by_id t = List.fold_left (fun tbl s -> Hashtbl.replace tbl s.d_span s; tbl) (Hashtbl.create 64) t.spans

let children t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.d_parent >= 0 then
        Hashtbl.replace tbl s.d_parent (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.d_parent)))
    t.spans;
  Hashtbl.iter
    (fun k v -> Hashtbl.replace tbl k (List.sort (fun a b -> compare (a.d_t0, a.d_span) (b.d_t0, b.d_span)) v))
    (Hashtbl.copy tbl);
  tbl

let roots t = List.filter (fun s -> s.d_parent < 0) t.spans

(* ------------------------------------------------------------------ *)
(* Assembly *)

type open_span = {
  o_parent : int;
  o_trace : string;
  o_name : string;
  o_kind : string;
  o_node : int;
  o_t0 : float;
}

let assemble ?(subs = []) (log : Evlog.record array) : t =
  let opened : (int, open_span) Hashtbl.t = Hashtbl.create 64 in
  let closed : (int, span) Hashtbl.t = Hashtbl.create 64 in
  let ids = ref [] (* span ids in open order, reversed *) in
  let last_time = ref 0.0 in
  Array.iter
    (fun (r : Evlog.record) ->
      if r.Evlog.time > !last_time then last_time := r.Evlog.time;
      match r.Evlog.kind with
      | Evlog.Span_start { span; parent; trace; name; kind; node } ->
          ids := span :: !ids;
          Hashtbl.replace opened span
            { o_parent = parent; o_trace = trace; o_name = name; o_kind = kind; o_node = node; o_t0 = r.Evlog.time }
      | Evlog.Span_end { span; status } -> (
          match Hashtbl.find_opt opened span with
          | None -> () (* end without start: dropped (should not happen) *)
          | Some o ->
              Hashtbl.remove opened span;
              Hashtbl.replace closed span
                {
                  d_span = span;
                  d_parent = o.o_parent;
                  d_trace = o.o_trace;
                  d_name = o.o_name;
                  d_kind = o.o_kind;
                  d_node = o.o_node;
                  d_t0 = o.o_t0;
                  d_t1 = r.Evlog.time;
                  d_status = status;
                })
      | _ -> ())
    log;
  (* Close anything left open — a crashed node's scheduled fetch/compute
     ends never fired — at its parent's end (parents are allocated
     before children, so ascending id order closes parents first). *)
  let ordered = List.rev !ids in
  List.iter
    (fun id ->
      match Hashtbl.find_opt opened id with
      | None -> ()
      | Some o ->
          let t1 =
            match Hashtbl.find_opt closed o.o_parent with
            | Some p -> Float.max o.o_t0 p.d_t1
            | None -> Float.max o.o_t0 !last_time
          in
          Hashtbl.replace closed id
            {
              d_span = id;
              d_parent = o.o_parent;
              d_trace = o.o_trace;
              d_name = o.o_name;
              d_kind = o.o_kind;
              d_node = o.o_node;
              d_t0 = o.o_t0;
              d_t1 = t1;
              d_status = "lost";
            })
    ordered;
  let outer = List.filter_map (Hashtbl.find_opt closed) ordered in
  (* Inner engine logs: one "inner-task" span per task of each sub,
     rebased at the owner's start, clamped into the owner interval. *)
  let next = ref (List.fold_left (fun acc s -> max acc s.d_span) 0 outer) in
  let inner =
    List.concat_map
      (fun sub ->
        match Hashtbl.find_opt closed sub.sub_owner with
        | None -> []
        | Some owner ->
            List.map
              (fun (sp : Span.t) ->
                incr next;
                let clamp v = Float.min owner.d_t1 (Float.max owner.d_t0 v) in
                let t0 = clamp (sub.sub_t0 +. (sub.sub_scale *. sp.Span.sp_spawned)) in
                let t1, status =
                  if sp.Span.sp_finished >= 0.0 then
                    (clamp (sub.sub_t0 +. (sub.sub_scale *. sp.Span.sp_finished)), "ok")
                  else (owner.d_t1, "unfinished")
                in
                {
                  d_span = !next;
                  d_parent = owner.d_span;
                  d_trace = owner.d_trace;
                  d_name = sp.Span.sp_name;
                  d_kind = "inner-task";
                  d_node = owner.d_node;
                  d_t0 = t0;
                  d_t1 = Float.max t0 t1;
                  d_status = status;
                })
              (Span.of_log sub.sub_log))
      subs
  in
  let spans = outer @ inner in
  let end_time = List.fold_left (fun acc s -> Float.max acc s.d_t1) !last_time spans in
  { spans; end_time }

(* ------------------------------------------------------------------ *)
(* Validation *)

(* Spans whose parent id names no span in the forest. *)
let orphans t =
  let tbl = by_id t in
  List.filter (fun s -> s.d_parent >= 0 && not (Hashtbl.mem tbl s.d_parent)) t.spans

(* (child, parent) pairs where the child interval leaks outside the
   parent's. *)
let containment_violations t =
  let tbl = by_id t in
  let e = eps t in
  List.filter_map
    (fun s ->
      match if s.d_parent >= 0 then Hashtbl.find_opt tbl s.d_parent else None with
      | Some p when s.d_t0 < p.d_t0 -. e || s.d_t1 > p.d_t1 +. e -> Some (s, p)
      | _ -> None)
    t.spans

(* Parents whose tile children do not exactly partition them: any gap,
   overlap, or mismatched extent is a violation.  Parents interrupted
   by a crash ("crashed"/"lost", or holding a "lost" child) are
   exempt — their timeline was genuinely truncated. *)
let tiling_violations t =
  let kids = children t in
  let e = eps t in
  List.filter_map
    (fun p ->
      if p.d_status = "crashed" || p.d_status = "lost" then None
      else
        let tiles =
          List.filter
            (fun c -> is_tile ~parent_kind:p.d_kind ~child_kind:c.d_kind)
            (Option.value ~default:[] (Hashtbl.find_opt kids p.d_span))
        in
        if tiles = [] then None
        else if List.exists (fun c -> c.d_status = "lost") tiles then None
        else
          let problem = ref None in
          let flag fmt = Printf.ksprintf (fun m -> if !problem = None then problem := Some m) fmt in
          let cursor = ref p.d_t0 in
          List.iter
            (fun c ->
              if c.d_t0 > !cursor +. e then flag "gap %.3f..%.3f before %s" !cursor c.d_t0 c.d_name
              else if c.d_t0 < !cursor -. e then flag "overlap at %.3f on %s" c.d_t0 c.d_name;
              cursor := c.d_t1)
            tiles;
          if Float.abs (!cursor -. p.d_t1) > e then
            flag "tiles end at %.3f, span at %.3f" !cursor p.d_t1;
          Option.map (fun m -> (p, m)) !problem)
    t.spans

(* The one-call gate: orphans, containment, tiling. *)
let validate t =
  match orphans t with
  | o :: _ -> Error (Printf.sprintf "orphan span #%d %s: parent #%d missing" o.d_span o.d_name o.d_parent)
  | [] -> (
      match containment_violations t with
      | (c, p) :: _ ->
          Error
            (Printf.sprintf "span #%d %s [%.3f, %.3f] leaks outside parent #%d %s [%.3f, %.3f]"
               c.d_span c.d_name c.d_t0 c.d_t1 p.d_span p.d_name p.d_t0 p.d_t1)
      | [] -> (
          match tiling_violations t with
          | (p, m) :: _ -> Error (Printf.sprintf "span #%d %s not exactly tiled: %s" p.d_span p.d_name m)
          | [] -> Ok ()))

(* All spans of one trace, chronological — the post-mortem bundle the
   SLO flight recorder dumps for a tripped job. *)
let bundle t ~trace =
  List.filter (fun s -> s.d_trace = trace) t.spans
  |> List.sort (fun a b -> compare (a.d_t0, a.d_span) (b.d_t0, b.d_span))

(* ------------------------------------------------------------------ *)
(* Cross-node critical path *)

(* One attributed interval of the end-to-end walk. *)
type cseg = { c_t0 : float; c_t1 : float; c_bucket : string; c_name : string; c_node : int }

type crit = {
  c_end : float; (* end-to-end virtual units, tiled exactly by c_segs *)
  c_segs : cseg list; (* chronological *)
  c_buckets : (string * float) list; (* bucket -> units, largest first *)
  c_critical_node : int; (* node carrying the most on-path compute; -1 none *)
  c_critical_rpc : string; (* longest on-path network fetch; "" none *)
}

let bucket_of (s : span) =
  match s.d_kind with
  | "queue" -> "queue-wait"
  | "probe" -> "remote-cache"
  (* "hit" = found locally, "miss" = no remote copy existed (compiled
     cold in the compute phase): both are cache-probe time, not wire
     time *)
  | "fetch" -> ( match s.d_status with "hit" | "miss" -> "remote-cache" | _ -> "network")
  | _ -> "compute"

(* Walk backwards from the last-finishing work span.  Inside a span,
   recurse through its tile children (so a service splits into probe +
   compile); at a span's start, jump to the latest-finishing work span
   that ended by then — the run that was actually binding — charging
   any gap to "sched-wait"; with no predecessor, the head [0, t0] is
   "arrival".  Every interval between 0 and the anchor's end is
   attributed exactly once, so the bucket totals sum to the end-to-end
   time by construction. *)
let critpath t =
  let kids = children t in
  let e = eps t in
  let work s = match s.d_kind with "job" | "task" | "assembly" -> true | _ -> false in
  let works = List.filter work t.spans in
  let anchor =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some (b : span) when (b.d_t1, b.d_span) >= (s.d_t1, s.d_span) -> acc
        | _ -> Some s)
      None works
  in
  match anchor with
  | None -> { c_end = 0.0; c_segs = []; c_buckets = []; c_critical_node = -1; c_critical_rpc = "" }
  | Some anchor ->
      let segs = ref [] (* built backwards: prepending keeps chronology *) in
      let add t0 t1 bucket name node =
        if t1 -. t0 > e then segs := { c_t0 = t0; c_t1 = t1; c_bucket = bucket; c_name = name; c_node = node } :: !segs
      in
      (* attribute [s.d_t0, cursor] through s's tile children, recursively *)
      let rec attribute s cursor =
        let tiles =
          List.filter
            (fun c -> is_tile ~parent_kind:s.d_kind ~child_kind:c.d_kind)
            (Option.value ~default:[] (Hashtbl.find_opt kids s.d_span))
        in
        if tiles = [] then add s.d_t0 cursor (bucket_of s) s.d_name s.d_node
        else begin
          let cur = ref cursor in
          List.iter
            (fun c ->
              if c.d_t0 < !cur then begin
                attribute c (Float.min c.d_t1 !cur);
                (* defensive: a gap between tiles is charged to the parent *)
                if c.d_t1 < !cur -. e then add c.d_t1 !cur (bucket_of s) s.d_name s.d_node;
                cur := c.d_t0
              end)
            (List.rev tiles);
          if s.d_t0 < !cur -. e then add s.d_t0 !cur (bucket_of s) s.d_name s.d_node
        end
      in
      (* dependency names of s, from its fetch children: "fetch:M04" -> "M04" *)
      let deps_of s =
        List.filter_map
          (fun c ->
            if c.d_kind = "fetch" then
              match String.index_opt c.d_name ':' with
              | Some i -> Some (String.sub c.d_name (i + 1) (String.length c.d_name - i - 1))
              | None -> None
            else None)
          (Option.value ~default:[] (Hashtbl.find_opt kids s.d_span))
      in
      let max_steps = List.length works + 8 in
      let rec walk steps s =
        attribute s s.d_t1;
        if s.d_t0 > e then
          if steps >= max_steps then add 0.0 s.d_t0 "arrival" s.d_name (-1)
          else begin
            let deps = deps_of s in
            let is_dep c = List.exists (fun d -> c.d_name = "task:" ^ d) deps in
            let pred =
              List.fold_left
                (fun acc c ->
                  if c.d_span = s.d_span || c.d_t1 > s.d_t0 +. e || duration c <= e then acc
                  else
                    let score c = (c.d_t1, (if is_dep c then 2 else if c.d_node = s.d_node then 1 else 0), c.d_span) in
                    match acc with
                    | Some b when score b >= score c -> acc
                    | _ -> Some c)
                None works
            in
            match pred with
            | Some p ->
                if s.d_t0 -. p.d_t1 > e then add p.d_t1 s.d_t0 "sched-wait" s.d_name s.d_node;
                walk (steps + 1) p
            | None -> add 0.0 s.d_t0 "arrival" s.d_name (-1)
          end
      in
      walk 0 anchor;
      let segs = List.sort (fun a b -> compare (a.c_t0, a.c_t1) (b.c_t0, b.c_t1)) !segs in
      let buckets = Hashtbl.create 8 in
      List.iter
        (fun c ->
          let v = Option.value ~default:0.0 (Hashtbl.find_opt buckets c.c_bucket) in
          Hashtbl.replace buckets c.c_bucket (v +. (c.c_t1 -. c.c_t0)))
        segs;
      let c_buckets =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) buckets []
        |> List.sort (fun (ka, va) (kb, vb) -> compare (-.va, ka) (-.vb, kb))
      in
      let node_compute = Hashtbl.create 8 in
      List.iter
        (fun c ->
          if c.c_bucket = "compute" && c.c_node >= 0 then
            let v = Option.value ~default:0.0 (Hashtbl.find_opt node_compute c.c_node) in
            Hashtbl.replace node_compute c.c_node (v +. (c.c_t1 -. c.c_t0)))
        segs;
      let c_critical_node =
        Hashtbl.fold
          (fun n v acc -> match acc with Some (_, bv) when (bv, -n) >= (v, -n) -> acc | _ -> Some (n, v))
          node_compute None
        |> Option.map fst |> Option.value ~default:(-1)
      in
      let c_critical_rpc =
        List.fold_left
          (fun acc c ->
            if c.c_bucket <> "network" then acc
            else
              match acc with
              | Some (b : cseg) when b.c_t1 -. b.c_t0 >= c.c_t1 -. c.c_t0 -> acc
              | _ -> Some c)
          None segs
        |> Option.map (fun c -> if c.c_node >= 0 then Printf.sprintf "%s@node%d" c.c_name c.c_node else c.c_name)
        |> Option.value ~default:""
      in
      { c_end = anchor.d_t1; c_segs = segs; c_buckets; c_critical_node; c_critical_rpc }

let crit_total crit = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 crit.c_buckets

(* ------------------------------------------------------------------ *)
(* Rendering and export *)

(* Per-request waterfall: each root span and its subtree, one row per
   span with interval, duration and a bar scaled to the root window.
   [max_depth] 2 shows the request anatomy; 3+ adds inner engine
   tasks. *)
let waterfall ?(width = 32) ?(max_depth = 2) ~sec_per_unit t =
  let kids = children t in
  let buf = Buffer.create 4096 in
  let sec u = u *. sec_per_unit in
  let bar lo hi t0 t1 =
    if hi -. lo <= 0.0 then String.make width '.'
    else
      let pos v = int_of_float (float_of_int width *. (v -. lo) /. (hi -. lo)) in
      let a = max 0 (min (width - 1) (pos t0)) in
      let b = max a (min (width - 1) (pos t1 - 1)) in
      String.init width (fun i -> if i >= a && i <= b then '#' else '.')
  in
  let rec row depth lo hi s =
    if depth <= max_depth then begin
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %9.3fs - %9.3fs %9.3fs  |%s|%s\n" (String.make (2 * depth) ' ')
           (max 1 (24 - (2 * depth)))
           s.d_name (sec s.d_t0) (sec s.d_t1)
           (sec (duration s))
           (bar lo hi s.d_t0 s.d_t1)
           (if s.d_status = "ok" then "" else "  " ^ s.d_status));
      List.iter (row (depth + 1) lo hi) (Option.value ~default:[] (Hashtbl.find_opt kids s.d_span))
    end
  in
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "trace %s  %s%s\n" r.d_trace r.d_name
        (match r.d_node with -1 -> "" | n -> Printf.sprintf "  (node%d)" n));
      row 1 r.d_t0 r.d_t1 r)
    (List.sort (fun a b -> compare (a.d_t0, a.d_span) (b.d_t0, b.d_span)) (roots t));
  Buffer.contents buf

(* OTLP-flavoured JSON: resourceSpans / scopeSpans / spans with the
   standard field names (traceId 32 hex, spanId/parentSpanId 16 hex,
   start/endTimeUnixNano).  "UnixNano" here is *virtual* nanoseconds —
   the simulation has no wall clock, which is also what makes the
   export byte-identical across same-seed runs. *)
let to_otlp ~sec_per_unit t =
  let module J = Json in
  let nanos u = J.Int (int_of_float ((u *. sec_per_unit *. 1e9) +. 0.5)) in
  let attr k v = J.Obj [ ("key", J.Str k); ("value", J.Obj [ v ]) ] in
  let span_json s =
    J.Obj
      [
        ("traceId", J.Str (s.d_trace ^ s.d_trace));
        ("spanId", J.Str (Printf.sprintf "%016x" s.d_span));
        ("parentSpanId", J.Str (if s.d_parent < 0 then "" else Printf.sprintf "%016x" s.d_parent));
        ("name", J.Str s.d_name);
        ("kind", J.Int 1);
        ("startTimeUnixNano", nanos s.d_t0);
        ("endTimeUnixNano", nanos s.d_t1);
        ( "attributes",
          J.Arr
            [
              attr "mcc.kind" ("stringValue", J.Str s.d_kind);
              attr "mcc.node" ("intValue", J.Int s.d_node);
              attr "mcc.status" ("stringValue", J.Str s.d_status);
            ] );
        ("status", J.Obj [ ("code", J.Int (match s.d_status with "ok" | "hit" | "served" -> 1 | _ -> 2)) ]);
      ]
  in
  J.Obj
    [
      ( "resourceSpans",
        J.Arr
          [
            J.Obj
              [
                ( "resource",
                  J.Obj [ ("attributes", J.Arr [ attr "service.name" ("stringValue", J.Str "mcc") ]) ] );
                ( "scopeSpans",
                  J.Arr
                    [
                      J.Obj
                        [
                          ("scope", J.Obj [ ("name", J.Str "mcc.dtrace"); ("version", J.Str "1") ]);
                          ("spans", J.Arr (List.map span_json t.spans));
                        ];
                    ] );
              ];
          ] );
    ]
