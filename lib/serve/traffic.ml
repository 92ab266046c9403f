(* The open-loop traffic generator.

   Each client session is an independent Poisson-ish arrival process:
   exponential interarrival times around a per-client mean, programs
   drawn from a pool of suite ranks with a skew toward small programs
   (real build traffic is mostly small edits).  Open-loop means clients
   do not wait for completions before submitting — exactly the regime
   where admission control and fair scheduling earn their keep.

   Everything derives from one integer seed through split PRNG streams
   (one per client), so a trace replays byte-identically; clients'
   draws never perturb each other's.

   [skew] makes client 0 "chatty": an offered rate [heavy_factor]×
   everyone else's, at the lowest priority.  This is the starvation
   test's workload — under FIFO the chatty client's queue share crowds
   out the others' latency; under DRR it cannot. *)

open Mcc_synth

type config = {
  clients : int;
  jobs : int; (* total, across clients *)
  seed : int;
  ranks : int list; (* program pool (suite ranks) *)
  mean_interarrival : float; (* per-client mean, virtual seconds *)
  skew : bool; (* client 0 chatty at lowest priority *)
  suite_seed : int; (* perturbs the generated programs themselves *)
}

let heavy_factor = 8.0

let default =
  {
    clients = 4;
    jobs = 40;
    seed = 1;
    ranks = Suite.ranks_under 3.0;
    mean_interarrival = 40.0;
    skew = false;
    suite_seed = 0;
  }

let session_name c = Printf.sprintf "client-%d" c

(* Inverse-CDF exponential draw; [Prng.float] is in [0,1) so the log
   argument stays positive. *)
let exponential rng mean = -.mean *. log (1.0 -. Mcc_util.Prng.float rng 1.0)

let generate cfg =
  if cfg.clients <= 0 then invalid_arg "Traffic.generate: clients must be positive";
  if cfg.ranks = [] then invalid_arg "Traffic.generate: empty rank pool";
  let master = Mcc_util.Prng.create (0x5eede + cfg.seed) in
  let pool = Array.of_list cfg.ranks in
  let proto = ref [] in
  for c = 0 to cfg.clients - 1 do
    let rng = Mcc_util.Prng.split master in
    let chatty = cfg.skew && c = 0 in
    let mean =
      if chatty then cfg.mean_interarrival /. heavy_factor else cfg.mean_interarrival
    in
    (* priority classes cycle so shedding has real choices to make; the
       chatty client is pinned lowest *)
    let priority = if chatty then 0 else c mod 3 in
    let n =
      (cfg.jobs / cfg.clients) + if c < cfg.jobs mod cfg.clients then 1 else 0
    in
    let clock = ref 0.0 in
    for _ = 1 to n do
      clock := !clock +. exponential rng mean;
      (* ordinary clients skew toward the small end of the pool; the
         chatty client hammers the large end — high rate x heavy builds
         is the traffic that starves others under FIFO *)
      let draw = Mcc_util.Prng.skewed rng ~cap:(Array.length pool - 1) ~p:0.45 in
      let idx = if chatty then Array.length pool - 1 - draw else draw in
      proto := (!clock, c, priority, idx) :: !proto
    done
  done;
  let proto =
    List.sort
      (fun (t1, c1, _, _) (t2, c2, _, _) -> compare (t1, c1) (t2, c2))
      !proto
  in
  (* each rank of the pool is drawn many times: generate it once *)
  let stores = Array.map (fun rank -> lazy (Suite.program ~seed:cfg.suite_seed rank)) pool in
  List.mapi
    (fun i (arrival, c, priority, idx) ->
      let rank = pool.(idx) and store = Lazy.force stores.(idx) in
      {
        Request.j_id = i;
        j_session = session_name c;
        j_priority = priority;
        j_arrival = arrival;
        j_rank = rank;
        j_store = store;
        j_bytes = Mcc_core.Source_store.total_bytes store;
        j_closure = Request.closure_digest store;
      })
    proto
