(* The fault-tolerant remote-artifact fetch planner.

   Content addressing makes the data plane trivial to verify — the
   requester already knows the fingerprint it wants, so any response
   either digest-matches or is discarded — which leaves the hard part:
   when to give up on a silent peer.  [fetch] plans one interface fetch
   as pure arithmetic over the seeded network model: per-attempt
   timeouts, capped exponential backoff across [Costs.rpc_retry_limit]
   attempts, and a hedged duplicate to the replica once the primary has
   been quiet past the hedge delay; no retry goes to the primary after
   the hedge has answered.  An injected [Fault.Msg_drop] on the
   requester->server link loses an attempt exactly like seeded network
   loss does.

   The planner does not touch the agenda; it returns the elapsed time
   to artifact-in-hand (or to final failure) plus the Evlog events of
   the exchange as offsets from dispatch, which the farm DES schedules
   as future notes.  The exchange ends with the artifact in hand: a
   raced primary attempt whose timeout would fall later is abandoned,
   and records nothing more.  That keeps it a pure function of (net seed, fault
   plan, arguments) — unit-testable, and byte-deterministic. *)

open Mcc_sched
module Evlog = Mcc_obs.Evlog

type outcome = {
  ok : bool;
  elapsed : float; (* dispatch -> artifact in hand, virtual seconds *)
  served_by : int option;
  attempts : int;
  retries : int;
  drops : int;
  hedged : bool;
  hedge_won : bool;
  events : (float * Evlog.kind) list; (* offsets from dispatch, ascending *)
}

let link ~from ~to_ iface = Printf.sprintf "node%d->node%d:%s" from to_ iface

(* One request/response exchange with [server], dispatched at [at]:
   [Some t] = artifact in hand at [t], [None] = the attempt died (lost,
   unreachable, or the server sat on it past the timeout). *)
let attempt_once net ~requester ~server ~server_extra ~reachable ~iface ~bytes ~at =
  let params = Netsim.params net in
  let deadline = at +. Netsim.timeout params ~bytes in
  (* consult the fault plan first, then seeded loss, so the injected
     drop schedule is independent of the network's loss rate *)
  let dropped =
    Fault.fires Fault.Msg_drop (link ~from:requester ~to_:server iface) || Netsim.lost net
  in
  if (not (reachable server)) || dropped then None
  else
    let done_at = at +. Netsim.rtt net ~bytes +. server_extra in
    if done_at > deadline then None else Some done_at

let fetch ~net ~requester ~primary ?replica ?(primary_extra = 0.0) ?(replica_extra = 0.0)
    ~reachable ~iface ~bytes () =
  let params = Netsim.params net in
  let events = ref [] in
  let note at kind = events := (at, kind) :: !events in
  let drops = ref 0 in
  (* The hedge: a duplicate request to the replica, sent once the
     primary has been quiet past the hedge delay (at most once). *)
  let hedge_at = Netsim.hedge_delay params ~bytes in
  let hedge = ref None and hedge_decided = ref false in
  let send_hedge () =
    hedge_decided := true;
    match replica with
    | Some r when reachable r ->
        note hedge_at (Evlog.Rpc_hedge { node = requester; replica = r; iface });
        let result =
          attempt_once net ~requester ~server:r ~server_extra:replica_extra ~reachable ~iface
            ~bytes ~at:hedge_at
        in
        if result = None then incr drops;
        hedge := Some (r, result)
    | _ -> ()
  in
  (* Retry loop against the primary, in time order with the hedge: a
     retry due after the hedge has answered is never sent. *)
  let rec attempt n at =
    if (not !hedge_decided) && hedge_at <= at then send_hedge ();
    match !hedge with
    | Some (_, Some h) when h <= at -> (n - 1, None)
    | _ -> (
        note at (Evlog.Rpc_fetch { node = requester; peer = primary; iface; attempt = n });
        match
          attempt_once net ~requester ~server:primary ~server_extra:primary_extra ~reachable
            ~iface ~bytes ~at
        with
        | Some done_at -> (n, Some done_at)
        | None ->
            incr drops;
            let failed_at = at +. Netsim.timeout params ~bytes in
            note failed_at
              (Evlog.Rpc_timeout { node = requester; peer = primary; iface; attempt = n });
            if n >= Costs.rpc_retry_limit then (n, None)
            else
              let backoff =
                Float.min
                  (Costs.rpc_backoff_seconds *. Float.pow 2.0 (float_of_int (n - 1)))
                  Costs.rpc_backoff_cap_seconds
              in
              attempt (n + 1) (failed_at +. backoff))
  in
  let attempts, primary_done = attempt 1 0.0 in
  let primary_quiet = match primary_done with None -> true | Some t -> t > hedge_at in
  if primary_quiet && not !hedge_decided then send_hedge ();
  let hedge = !hedge in
  let winner =
    match (primary_done, hedge) with
    | Some p, Some (r, Some h) -> if h < p then Some (r, h) else Some (primary, p)
    | Some p, _ -> Some (primary, p)
    | None, Some (r, Some h) -> Some (r, h)
    | None, _ -> None
  in
  let hedged = hedge <> None in
  match winner with
  | Some (server, done_at) ->
      note done_at (Evlog.Rpc_serve { node = server; peer = requester; iface });
      let events = List.filter (fun (t, _) -> t <= done_at) !events in
      {
        ok = true;
        elapsed = done_at;
        served_by = Some server;
        attempts;
        retries = attempts - 1;
        drops = !drops;
        hedged;
        hedge_won = (hedged && server <> primary);
        events = List.sort compare (List.rev events);
      }
  | None ->
      let last_failed =
        List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 !events
      in
      {
        ok = false;
        elapsed = last_failed;
        served_by = None;
        attempts;
        retries = attempts - 1;
        drops = !drops;
        hedged;
        hedge_won = false;
        events = List.sort compare (List.rev !events);
      }
