(** The sharded build farm: N simulated compile nodes over the DES, a
    content-addressed remote artifact protocol, and a coordinator that
    survives node loss.

    Composition: the farm's event loop runs in virtual seconds; each
    node compiles one sharded interface closure at a time by running
    the real concurrent compiler (at the per-node processor count) in
    its own observation context, the inner simulated duration becoming
    the farm-level service time.  Interface artifacts ship between node
    caches over {!Remote.fetch} (digest-verified by content
    addressing, timeout + capped backoff retry, hedged to a replica).
    Heartbeats in virtual time detect dead nodes; their unfinished
    closures re-shard onto survivors; a fetch that fails every path
    recompiles locally; total node loss degrades to one sequential
    compile.  Every path lands on the same artifacts, and {!verify} is
    the oracle gate that proves it. *)

open Mcc_core

type config = {
  compile : Driver.config;
      (** per-node compile config — [procs] is processors {e per node};
          [faults] must be empty (arm farm faults below) *)
  nodes : int;
  net : Netsim.params;
  shard : Shard.policy;
  steal : bool;  (** idle nodes steal runnable closures from peers *)
  faults : Mcc_sched.Fault.spec list;
      (** farm fault plan ([node-crash], [node-slow], [msg-drop],
          [partition] — inner compile kinds also work and are absorbed
          by the driver's own recovery) *)
  fault_seed : int;
  seed : int;  (** network jitter/loss stream *)
}

(** 3 nodes, LAN, hash sharding, stealing on, no faults. *)
val default_config : config

type node_stats = {
  ns_id : int;
  ns_alive : bool;  (** still alive at the end of the run *)
  ns_slow : bool;  (** gray-failed *)
  ns_tasks : int;  (** closures completed *)
  ns_stolen : int;  (** ...of which stolen from peers *)
  ns_busy_seconds : float;
  ns_fetches : int;  (** remote fetches this node issued *)
  ns_serves : int;  (** fetches this node answered *)
}

type report = {
  f_nodes : int;
  f_procs : int;
  f_net : string;
  f_shard : string;
  f_tasks : int;  (** sharded interface closures *)
  f_makespan : float;  (** virtual seconds to the final linked program *)
  f_fetches : int;  (** remote fetch operations dispatched *)
  f_serves : int;  (** fetches answered (primary or replica) *)
  f_local_fallbacks : int;
      (** fetches that exhausted retries + hedge and recompiled locally *)
  f_rpc_retries : int;
  f_rpc_drops : int;  (** attempts lost to drops or timeouts *)
  f_hedges : int;
  f_hedge_wins : int;  (** hedged fetches the replica answered first *)
  f_steals : int;
  f_reshards : int;  (** closures moved off dead nodes *)
  f_crashes : int;
  f_detects : int;  (** dead nodes the heartbeat monitor declared *)
  f_slow_nodes : int;
  f_partitions : int;
  f_replicas : int;  (** artifacts pushed to a replica *)
  f_seq_fallback : bool;  (** total node loss: sequential recompile *)
  f_ok : bool;
  f_obs : Mcc_check.Observation.t;  (** of the final program *)
  f_node_stats : node_stats list;
  f_events : Mcc_obs.Evlog.record array;  (** empty unless [capture] *)
  f_subs : Mcc_obs.Dtrace.sub list;
      (** nested compile captures, one per task/assembly compute span;
          empty unless [trace] *)
  f_trace : string;  (** the run's trace id ([""] unless [trace]) *)
}

(** Run the farm to completion.  Deterministic: a function of (config,
    store) only.  [capture] records the farm-level event log (node,
    RPC and task lifecycle; inner compiles are suspended) for
    {!Mcc_analysis.Hb}.  [trace] (implies [capture]) additionally
    brackets the run with distributed-trace spans — one root "farm"
    span, per-closure "task" spans tiled by "fetch" + "compute"
    children (rpc attempt/hedge legs as annotations), and a final
    "assembly" span — captures each inner engine run into [f_subs]
    (gray-node captures carry the slowdown as [sub_scale]), and closes
    crash-interrupted task spans as ["crashed"]; feed [f_events] and
    [f_subs] to [Mcc_obs.Dtrace.assemble].  Virtual times and results
    are identical with tracing on or off. *)
val run : ?capture:bool -> ?trace:bool -> config -> Source_store.t -> report

(** Gate: the farm's final program must be observationally identical to
    a one-shot sequential compile, whatever faults the run absorbed. *)
val verify : Source_store.t -> report -> (unit, string) result
