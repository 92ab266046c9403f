(** Fault injection: the plan language of {!Mcc_obs.Fault_plan} and the
    sites that consult the installed run's plan.  A plan is armed by
    installing it in a run ({!Mcc_obs.Evlog.within} [~faults]); a run
    keeps the enclosing run's plan unless it is given one. *)

include module type of struct
  include Mcc_obs.Fault_plan
end

(** The installed run carries a plan. *)
val armed : unit -> bool

(** Faults fired so far by the installed run's plan (0 when none). *)
val fired : unit -> int

(** [fires ?aux kind name]: does a [kind] fault fire at the site with
    identity [name] under the installed run's plan?  Always [false]
    when the run carries none.  Identities: task name (with [aux] its
    class) for task crashes and stalls, event name for dropped wakes,
    interface or scope name for the compile sites, node name ("node2")
    for node crashes and slowdowns, the RPC link ("node1->node3:Iface")
    for message drops, a per-heartbeat network identity for partitions. *)
val fires : ?aux:string -> Mcc_obs.Fault_plan.kind -> string -> bool
