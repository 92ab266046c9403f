(** Distributed-trace assembly: the span forest behind [m2c trace].

    Traced serve/farm runs bracket every unit of a request's life with
    [Evlog.Span_start]/[Span_end] pairs and capture each nested
    [Driver.compile] log as a {!sub}; {!assemble} folds both into one
    forest on a single virtual-time axis.  Tile-kind children (queue,
    service, probe, compile, retry, fetch, compute) must exactly
    partition their parent; annotation kinds (rpc legs, inner engine
    tasks) are containment-only.  All times are Evlog virtual units;
    renderers take [sec_per_unit]. *)

type span = {
  d_span : int;
  d_parent : int;  (** -1 = root *)
  d_trace : string;
  d_name : string;
  d_kind : string;
  d_node : int;  (** -1 = not node-bound *)
  d_t0 : float;  (** virtual units *)
  d_t1 : float;
  d_status : string;  (** ["ok"], ["hit"], ["shed"], ["deadline"], ["crashed"], ["lost"], ... *)
}

(** A nested engine capture owned by one span: [sub_t0] is the owner's
    absolute start (units), [sub_scale] stretches inner units to outer
    ones (gray-failed farm nodes run slowed down). *)
type sub = {
  sub_owner : int;
  sub_t0 : float;
  sub_scale : float;
  sub_log : Evlog.record array;
}

type t = {
  spans : span list;  (** ascending span id *)
  end_time : float;  (** last span end / last record, units *)
}

val duration : span -> float

(** The tiling relation: must children of [child_kind] partition a
    [parent_kind] span exactly? *)
val is_tile : parent_kind:string -> child_kind:string -> bool

val roots : t -> span list

(** Child lists per parent span id, sorted by (t0, id). *)
val children : t -> (int, span list) Hashtbl.t

(** Fold a captured outer log plus nested engine captures into a
    forest.  Spans left open (a crashed node's scheduled ends never
    fired) close at their parent's end with status ["lost"]; inner
    task spans are rebased at the owner's start, scaled by
    [sub_scale], clamped into the owner interval, kind
    ["inner-task"]. *)
val assemble : ?subs:sub list -> Evlog.record array -> t

(** Spans whose parent id names no span in the forest. *)
val orphans : t -> span list

(** (child, parent) pairs where the child interval leaks outside the
    parent's. *)
val containment_violations : t -> (span * span) list

(** Parents whose tile children do not exactly partition them (gap,
    overlap, or mismatched extent), with a description.  Crash-
    truncated parents are exempt. *)
val tiling_violations : t -> (span * string) list

(** Orphans, containment, tiling — first failure as [Error]. *)
val validate : t -> (unit, string) result

(** All spans of one trace, chronological — the post-mortem bundle the
    SLO flight recorder dumps for a tripped job. *)
val bundle : t -> trace:string -> span list

(** One attributed interval of the cross-node critical-path walk. *)
type cseg = { c_t0 : float; c_t1 : float; c_bucket : string; c_name : string; c_node : int }

type crit = {
  c_end : float;  (** end-to-end virtual units, tiled exactly by [c_segs] *)
  c_segs : cseg list;  (** chronological *)
  c_buckets : (string * float) list;  (** bucket -> units, largest first *)
  c_critical_node : int;  (** node carrying the most on-path compute; -1 none *)
  c_critical_rpc : string;  (** longest on-path network fetch; [""] none *)
}

(** Cross-node critical path: walk backwards from the last-finishing
    work span (job / task / assembly), recursing through tile children
    and jumping to the latest-finishing predecessor at each span start
    (gaps charged to ["sched-wait"], the head to ["arrival"]).  Buckets:
    ["queue-wait"], ["network"], ["remote-cache"], ["compute"],
    ["sched-wait"], ["arrival"].  The bucket totals sum to [c_end]
    exactly by construction. *)
val critpath : t -> crit

(** Sum of all attributed bucket units; equals [c_end] when complete. *)
val crit_total : crit -> float

(** Per-request waterfall: each root span's subtree, one row per span
    with interval, duration, and a bar scaled to the root window.
    [max_depth] 2 (default) shows the request anatomy, 3 the service
    segments (probe/compile or fetch/compute), 4 adds inner engine
    tasks. *)
val waterfall : ?width:int -> ?max_depth:int -> sec_per_unit:float -> t -> string

(** OTLP-flavoured JSON (resourceSpans / scopeSpans / spans, 32-hex
    trace ids, virtual-time UnixNanos).  Deterministic: same-seed runs
    export byte-identical documents. *)
val to_otlp : sec_per_unit:float -> t -> Json.t
