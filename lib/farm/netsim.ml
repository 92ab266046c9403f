(* The seeded network-cost model connecting farm nodes.

   Deterministic from (seed, draw order): every transfer pays one-way
   latency with a small seeded jitter plus payload bytes over the link
   bandwidth, and every message is lost with the configured probability
   (on top of any armed [Fault.Msg_drop] plan, which is consulted by the
   protocol layer, not here).  The DES processes events in one global
   time order, so the draw order — and with it every latency and loss
   decision — is a pure function of the farm seed. *)

open Mcc_util

type params = {
  latency : float; (* one-way propagation, virtual seconds *)
  bandwidth : float; (* payload bytes per virtual second *)
  loss : float; (* per-message loss probability, 0..1 *)
}

let zero = { latency = 0.0; bandwidth = infinity; loss = 0.0 }
let lan = { latency = 200e-6; bandwidth = 100e6; loss = 0.001 }
let wan = { latency = 20e-3; bandwidth = 10e6; loss = 0.01 }

let params_to_string p =
  if p = zero then "zero"
  else if p = lan then "lan"
  else if p = wan then "wan"
  else Printf.sprintf "%.0f:%.1f:%.2f" (p.latency *. 1e6) (p.bandwidth /. 1e6) (p.loss *. 100.0)

(* "zero" | "lan" | "wan" | "LAT_US:BW_MBPS:LOSS_PCT" *)
let params_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "zero" -> Ok zero
  | "lan" -> Ok lan
  | "wan" -> Ok wan
  | custom -> (
      match String.split_on_char ':' custom with
      | [ lat; bw; loss ] -> (
          match (float_of_string_opt lat, float_of_string_opt bw, float_of_string_opt loss) with
          | Some lat, Some bw, Some loss
            when lat >= 0.0 && bw > 0.0 && loss >= 0.0 && loss <= 100.0 ->
              Ok { latency = lat *. 1e-6; bandwidth = bw *. 1e6; loss = loss /. 100.0 }
          | _ ->
              Error
                (Printf.sprintf
                   "bad --net %S: want zero, lan, wan or LAT_US:BW_MBPS:LOSS_PCT (loss 0-100)" s))
      | _ ->
          Error
            (Printf.sprintf "bad --net %S: want zero, lan, wan or LAT_US:BW_MBPS:LOSS_PCT" s))

type t = { params : params; rng : Prng.t }

let create ?(seed = 0) params = { params; rng = Prng.create (0x6e657473 lxor seed) }
let params t = t.params

let transfer p ~bytes =
  if p.bandwidth = infinity then 0.0 else float_of_int bytes /. p.bandwidth

(* One-way delivery time for [bytes], with up to 25% seeded jitter on
   the propagation component. *)
let delay t ~bytes =
  let jitter = if t.params.latency = 0.0 then 0.0 else Prng.float t.rng 0.25 in
  (t.params.latency *. (1.0 +. jitter)) +. transfer t.params ~bytes

(* Request/response round trip: the request is small, the reply carries
   the artifact. *)
let rtt t ~bytes = delay t ~bytes:64 +. delay t ~bytes

let lost t = t.params.loss > 0.0 && Prng.chance t.rng t.params.loss

(* Per-request timeout: generous against jitter, tight enough that a
   dropped message retries promptly even on a WAN. *)
let timeout p ~bytes =
  Float.max 2e-3 ((4.0 *. p.latency) +. (2.0 *. transfer p ~bytes))

(* Hedge trigger: a bit past the jitter-free round trip — a healthy
   primary answers first, a late one races its replica. *)
let hedge_delay p ~bytes = Float.max 1e-3 ((3.0 *. p.latency) +. (1.5 *. transfer p ~bytes))
