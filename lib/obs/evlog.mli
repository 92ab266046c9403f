(** The structured concurrency event log.

    A globally ordered record stream of every synchronization-relevant
    action performed while compiling on the DES engine — symbol
    publishes, scope completions, DKY blocks/unblocks, event
    signal/block/wake, gated-task releases, task spawn/start/finish —
    and of processor activity: one [Busy] record per stretch a
    simulated processor ran a task or held it through a barrier wait.
    A farm run adds its node, RPC and closure records, and serve and
    farm runs record each job's and node's life as [Span_start]/
    [Span_end] pairs.  It is the one recording of what ran when, and
    every kind has a reader:
    - the happens-before checker ([Mcc_analysis.Hb]) replays it to
      verify the DKY ordering invariants of paper §2.3.3 across
      perturbed schedules, and the farm's fetch/serve pairing and
      exactly-once closure completion ([Node_dead], [Rpc_*],
      [Farm_*]);
    - {!Span} and {!Critpath} reconstruct per-task timelines and the
      end-to-end critical path;
    - [Mcc_sched.Trace.of_log] rebuilds the per-processor segments
      that WatchTool (paper Figs. 4/7), utilization and the Chrome
      export ([Mcc_analysis.Trace_json]) draw; task names and classes
      come from the [Task_spawn] records;
    - {!Dtrace} folds serve/farm captures, with their inner engines'
      logs, into span forests ([Span_start]/[Span_end]), and the farm
      reads [Rpc_*] planner outcomes back into its RPC spans.

    One run's observation state is one {!ctx}: the log, its virtual
    clock and current task, the {!Metrics} registry, the {!Trace_ctx}
    span counter and the event, task and scope id counters; it is one
    field of the installed {!run}.  Emitters write to the installed
    context; a run installs its own with {!within}, so runs nest and a
    nested run never writes into its encloser's log.  Ids are numbered
    per context: a compile makes its own, so the ids its diagnostics
    and log name do not depend on what the process ran before.  A
    context records nothing unless made
    with [~log] (or [~metrics]); emission sites
    guard on {!enabled} before allocating a record, and no record
    charges [Eff.work], so default compile timings are unaffected.
    DES-only: the single-threaded engine appends records in true
    execution order (the domain engine runs in an {!unlogged} context).

    The installed-run slot is one of the two module-level cells left in
    the library; the other is [Eff.mode], which code outside the
    library assigns.  The slot stays global because a domain-local one
    costs a lookup on every emission and charge. *)

type kind =
  | Task_spawn of {
      task : int;
      name : string;
      cls : string;  (** [Task.cls_name] of the spawned task *)
      gate : int;  (** gate event id, -1 ungated *)
    }
  | Task_start of { task : int }
  | Task_finish of { task : int }
  | Busy of { proc : int; task : int; t0 : float; t1 : float; barrier : bool }
      (** processor [proc] ran [task] over [t0, t1] or, [barrier], held
          it bound through a barrier wait; emitted as the segment is
          scheduled, so its stamp is [t0] (a run) or [t1] (a wait) *)
  | Ev_signal of { ev : int; name : string }
  | Ev_block of { ev : int; name : string; producer : int  (** expected signaler, -1 unknown *) }
  | Ev_wake of { ev : int; task : int  (** the woken task *) }
  | Gate_release of { ev : int; task : int  (** the released gated task *) }
  | Frame_add of { key : string }  (** a global frame reached the merger ([Cunit.add_frame]) *)
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
  | Node_dead of { node : int }
      (** a node-crash fault fired at a heartbeat ([Mcc_farm]; one
          stream per farm run) *)
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
    from 1, event, task and scope ids from 0.  [~log] records the
    event log, [~metrics] keeps a {!Metrics} registry; with neither it
    records nothing. *)
val ctx : ?log:bool -> ?metrics:bool -> unit -> ctx

(** [unlogged c] records nothing, but draws its event, task and scope
    ids from [c]'s counters: a run whose records could not be ordered
    (the domain engine's) numbers its objects in its encloser's
    sequence. *)
val unlogged : ctx -> ctx

(** The context's records in append order ([[||]] without [~log]). *)
val log : ctx -> record array

(** [capture f] runs [f] in a fresh logging context and returns
    [(f (), log)].  A traced serve/farm run captures its span log this
    way while each inner [Driver.compile ~capture:true] takes
    its own context, whose log becomes a [Dtrace] sub-trace of the
    owning span. *)
val capture : (unit -> 'a) -> 'a * record array

(** {1 The installed run}

    Everything a run mutates: its observation context, the armed fault
    plan, whether work is charged, the work accumulator and the
    direct-mode total.  Outside every run: an empty context, accounting
    on, no plan. *)

type run = {
  obs : ctx;
  faults : Fault_plan.plan option;
  accounting : bool;  (** false: [Eff.work] charges nothing (real domains) *)
  mutable acc : int;  (** work charged since the last [Eff.flush] *)
  mutable direct_total : float;  (** work flushed outside an engine *)
}

val run : unit -> run

(** [within ?obs ?faults ?accounting f] installs a fresh run, with
    nothing charged, for the extent of [f] and then reinstalls the
    enclosing one (exceptions included).  [obs] and [faults] default to
    the enclosing run's, [accounting] to [true]. *)
val within : ?obs:ctx -> ?faults:Fault_plan.plan -> ?accounting:bool -> (unit -> 'a) -> 'a

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

(** {1 Object ids}

    The installed context's next event, task and scope id: each kind
    counts from 0 in a fresh context, so one compile's ids do not
    depend on what the process ran before.  Safe to call from several
    domains at once. *)

val next_event : unit -> int
val next_task : unit -> int
val next_scope : unit -> int
