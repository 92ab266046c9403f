(** The virtual-time metrics registry.

    Counters, gauges and fixed-bucket histograms keyed by metric name +
    label set, accumulated while the compiler runs on the DES engine.
    The registry belongs to the installed {!Evlog.ctx}: a context made
    with [~metrics:true] records into its own registry, and outside one
    every recording call is a no-op.  Values measure {e virtual}
    quantities (work units, task counts, probe counts): the registry
    never charges [Eff.work] and allocates nothing while disabled, so a
    run with telemetry on has exactly the virtual timings of a run with
    it off — the same invariant {!Evlog} maintains for the event log.

    Guard hot-path call sites with {!enabled} before building any label
    list:

    {[
      if Metrics.enabled () then
        Metrics.count ~labels:[ ("cls", cls) ] "mcc_sched_dispatch_total" 1.0
    ]} *)

(** {1 Snapshots} *)

type value =
  | VCounter of float
  | VGauge of float
  | VHistogram of { h_bounds : float array; h_counts : int array; h_sum : float; h_count : int }
      (** [h_counts] has one bucket per bound plus the implicit +inf
          bucket. *)

type sample = { s_name : string; s_labels : (string * string) list; s_value : value }

(** Samples sorted by (name, labels): two identical runs export
    byte-identical snapshots. *)
type snapshot = sample list

(** {1 Recording} *)

(** Whether the installed context keeps a registry. *)
val enabled : unit -> bool

(** Default histogram buckets for virtual-work-unit durations: spans the
    cost table from a single dispatch to a whole long procedure's code
    generation. *)
val duration_bounds : float array

(** Add [v] to a counter (created at 0 on first use).
    @raise Invalid_argument if the name is already a different kind. *)
val count : ?labels:(string * string) list -> string -> float -> unit

(** [count ~labels name 1.0]. *)
val incr : ?labels:(string * string) list -> string -> unit

(** Set a gauge. *)
val gauge : ?labels:(string * string) list -> string -> float -> unit

(** A high-watermark gauge: keeps the maximum of all reported values. *)
val gauge_max : ?labels:(string * string) list -> string -> float -> unit

(** Record one observation into a histogram; [bounds] (ascending upper
    bounds, default {!duration_bounds}) is fixed by the first call. *)
val observe : ?labels:(string * string) list -> ?bounds:float array -> string -> float -> unit

(** {1 Lifecycle} *)

(** Deterministic copy of a context's registry (immune to later
    mutation); [[]] for a context without one. *)
val snapshot : Evlog.ctx -> snapshot

(** Run [f] in a fresh context that keeps only a registry and return
    its result paired with the final snapshot. *)
val with_registry : (unit -> 'a) -> 'a * snapshot

(** {1 Snapshot accessors (tests and reports)} *)

val find : snapshot -> ?labels:(string * string) list -> string -> sample option

(** The counter's value under exactly [labels], 0 when absent. *)
val counter_value : snapshot -> ?labels:(string * string) list -> string -> float

(** Sum of a counter across all label sets. *)
val counter_total : snapshot -> string -> float
