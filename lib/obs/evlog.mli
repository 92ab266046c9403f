(** The structured concurrency event log.

    A globally ordered record stream of every synchronization-relevant
    action performed while compiling on the DES engine: symbol
    publishes, scope completions, DKY blocks/unblocks, event
    signal/block/wake, gated-task releases, task spawn/start/finish.
    The happens-before checker ([Mcc_analysis.Hb]) replays it to verify
    the DKY ordering invariants of paper §2.3.3 across perturbed
    schedules; {!Span} and {!Critpath} reconstruct per-task timelines
    and the end-to-end critical path from the same stream.

    One run's observation state is one {!ctx}: the log, its virtual
    clock and current task, the {!Metrics} registry and the
    {!Trace_ctx} span counter.  Emitters write to the installed
    context; a run installs its own with {!within}, so runs nest and a
    nested run never writes into its encloser's log.  A context records
    nothing unless made with [~log] (or [~metrics]); emission sites
    guard on {!enabled} before allocating a record, and no record
    charges [Eff.work], so default compile timings are unaffected.
    DES-only: the single-threaded engine appends records in true
    execution order (the domain engine runs in an empty context). *)

type kind =
  | Task_spawn of {
      task : int;
      name : string;
      cls : string;  (** [Task.cls_name] of the spawned task *)
      gate : int;  (** gate event id, -1 ungated *)
    }
  | Task_start of { task : int }
  | Task_finish of { task : int }
  | Ev_signal of { ev : int; name : string }
  | Ev_block of { ev : int; name : string; producer : int  (** expected signaler, -1 unknown *) }
  | Ev_wake of { ev : int; task : int  (** the woken task *) }
  | Gate_release of { ev : int; task : int  (** the released gated task *) }
  | Scope_intern of { scope : int; name : string }
  | Publish of { scope : int; scope_name : string; sym : string }
  | Complete of { scope : int; scope_name : string }
  | Observe of { scope : int; scope_name : string; sym : string; complete : bool }
  | Auth_miss of { scope : int; scope_name : string; sym : string }
      (** a miss in a {e complete} table — authoritative: the symbol
          must never be published to this scope afterwards *)
  | Dky_block of { scope : int; scope_name : string; sym : string; ev : int }
  | Dky_unblock of { scope : int; scope_name : string; sym : string; ev : int }
  | Fault_inject of { fault : string; victim : string }
      (** an armed fault plan fired at an injection site *)
  | Task_retry of { task : int; attempt : int }
      (** a crashed-at-start task redispatched after virtual-time backoff *)
  | Task_quarantine of { task : int; name : string }
      (** retries exhausted (or resume-crash): the task is permanently failed *)
  | Watchdog_fire of { ev : int; task : int }
      (** the stall watchdog re-delivered a lost wake for [task] *)
  | Job_enqueue of { job : int; session : string }
      (** a compile-server job arrived and was offered to admission *)
  | Job_admit of { job : int; session : string }
      (** admission accepted the job into the bounded queue *)
  | Job_shed of { job : int; session : string }
      (** admission rejected the job (queue full): it is never served *)
  | Job_batch of { job : int; leader : int; size : int }
      (** the job rides [leader]'s batch (shared interface closure) *)
  | Job_done of { job : int; warm : bool }
      (** served; [warm] = answered from the shared module memo *)
  | Node_start of { node : int; procs : int }
      (** a farm node came up ([Mcc_farm]; one stream per farm run) *)
  | Node_dead of { node : int }  (** a node-crash fault fired at a heartbeat *)
  | Node_detect of { node : int }
      (** the coordinator noticed the missed heartbeats and re-shards *)
  | Heartbeat of { node : int }
  | Rpc_fetch of { node : int; peer : int; iface : string; attempt : int }
      (** [node] asks [peer] for an interface artifact; attempt 1 = first try *)
  | Rpc_timeout of { node : int; peer : int; iface : string; attempt : int }
      (** the request (or its reply) was lost; the requester backs off *)
  | Rpc_hedge of { node : int; replica : int; iface : string }
      (** the primary is late: a hedged fetch goes to the replica *)
  | Rpc_serve of { node : int; peer : int; iface : string }
      (** [node] delivered the artifact to [peer] (digest-verified) *)
  | Farm_assign of { node : int; iface : string }  (** sharding placed the closure *)
  | Farm_steal of { node : int; victim : int; iface : string }
      (** an idle node stole a runnable closure from [victim]'s queue *)
  | Farm_reshard of { node : int; iface : string }
      (** a dead node's unfinished closure, reassigned to [node] *)
  | Farm_task_done of { node : int; iface : string }
  | Farm_replicate of { node : int; replica : int; iface : string }
      (** the freshly built artifact was pushed to its replica *)
  | Net_partition of { spec : string }  (** the network split ("even|odd") *)
  | Net_heal
  | Span_start of {
      span : int;  (** [Trace_ctx.fresh] id, unique within the capture *)
      parent : int;  (** owning span id; -1 = a trace root *)
      trace : string;  (** deterministic trace id ({!Trace_ctx.trace_id}) *)
      name : string;  (** display name, e.g. ["job#3"] or ["fetch:M04"] *)
      kind : string;  (** tiling/annotation class: ["job"], ["queue"], ... *)
      node : int;  (** acting farm node; -1 = not node-bound *)
    }
      (** a distributed-tracing span opened: serve/farm runs bracket
          every unit of a request's life with start/end pairs that
          [Dtrace] assembles into the per-request span forest *)
  | Span_end of { span : int; status : string  (** ["ok"], ["shed"], ["deadline"], ... *) }

type record = {
  seq : int;
  time : float;  (** virtual work units at append (see {!set_time}) *)
  task : int;  (** emitting task; -1 = scheduler *)
  kind : kind;
}

(** {1 The observation context} *)

(** One run's observation state. *)
type ctx

(** A fresh context: virtual clock at 0, no current task, span ids
    from 1.  [~log] records the event log, [~metrics] keeps a
    {!Metrics} registry; with neither it records nothing. *)
val ctx : ?log:bool -> ?metrics:bool -> unit -> ctx

(** [within c f] installs [c] for the extent of [f], then reinstalls
    the enclosing context (exceptions included). *)
val within : ctx -> (unit -> 'a) -> 'a

(** The context's records in append order ([[||]] without [~log]). *)
val log : ctx -> record array

(** [capture f] runs [f] in a fresh logging context and returns
    [(f (), log)].  A traced serve/farm run captures its job-lifecycle
    log this way while each inner [Driver.compile ~capture:true] takes
    its own context, whose log becomes a [Dtrace] sub-trace of the
    owning span. *)
val capture : (unit -> 'a) -> 'a * record array

(** The installed context. *)
val current : unit -> ctx

(** {1 Emission} *)

(** Whether the installed context records the log. *)
val enabled : unit -> bool

(** Record which task's code is currently executing (set by the DES
    engine at every dispatch). *)
val set_task : int -> unit

(** Stamp the virtual clock (set by the DES engine at every agenda
    dispatch); subsequent records carry this time. *)
val set_time : float -> unit

(** Append a record to the installed context's log (no-op without
    one).  Call sites must guard with {!enabled} so the record is not
    even allocated on the default path.  Raises [Invalid_argument] if
    the stamped virtual time is older than the last appended record's:
    the agenda delivers work in nondecreasing time order, so a
    regression is an engine bug. *)
val emit : kind -> unit

(** {1 Registry and span-id storage}

    The parts of a context that {!Metrics} and {!Trace_ctx} read and
    write. *)

type histo = {
  bounds : float array;  (** ascending upper bounds; +inf bucket implicit *)
  counts : int array;  (** one per bound, plus the +inf bucket *)
  mutable sum : float;
  mutable count : int;
}

type cell = Counter of float ref | Gauge of float ref | Histogram of histo

(** Cells keyed by metric name and sorted label set. *)
type registry = (string * (string * string) list, cell) Hashtbl.t

(** The context's registry ([None] without [~metrics]). *)
val registry : ctx -> registry option

(** Allocate the installed context's next span id. *)
val next_span : unit -> int

val kind_to_string : kind -> string
val record_to_string : record -> string
