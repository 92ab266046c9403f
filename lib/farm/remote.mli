(** The fault-tolerant remote-artifact fetch planner.

    Plans one content-addressed interface fetch as pure arithmetic over
    the seeded network model: per-attempt timeouts, capped exponential
    backoff up to [Costs.rpc_retry_limit] attempts, plus a hedged
    duplicate request to the replica once the primary has been quiet
    past the hedge delay.  Injected [Fault.msg_drop] faults on the
    requester->server link lose attempts exactly like seeded loss.

    Pure: no agenda access, no emission.  The returned event offsets
    (from dispatch) are scheduled by the farm DES as future notes. *)

type outcome = {
  ok : bool;  (** artifact in hand (from primary or replica) *)
  elapsed : float;  (** dispatch -> in hand, or -> final failure *)
  served_by : int option;
  attempts : int;  (** requests sent to the primary *)
  retries : int;  (** [attempts - 1] *)
  drops : int;  (** attempts lost to drops/timeouts (either server) *)
  hedged : bool;  (** a duplicate request raced the replica *)
  hedge_won : bool;  (** ...and the replica answered first *)
  events : (float * Mcc_obs.Evlog.kind) list;
      (** RPC lifecycle events, offsets from dispatch, ascending, none
          past [elapsed] *)
}

(** [link ~from ~to_ iface] is the fault-plan target name for a message
    on that directed edge: ["node<from>->node<to_>:<iface>"]. *)
val link : from:int -> to_:int -> string -> string

(** [fetch ~net ~requester ~primary ?replica ?primary_extra
    ?replica_extra ~reachable ~iface ~bytes ()] — [primary_extra] is
    server-side delay (a gray-failed node answers slowly enough to trip
    timeouts and the hedge), [reachable] folds in liveness and any
    active partition. *)
val fetch :
  net:Netsim.t ->
  requester:int ->
  primary:int ->
  ?replica:int ->
  ?primary_extra:float ->
  ?replica_extra:float ->
  reachable:(int -> bool) ->
  iface:string ->
  bytes:int ->
  unit ->
  outcome
