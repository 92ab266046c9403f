open Mcc_core
module Obs = Mcc_check.Observation
module J = Mcc_obs.Json

type point = {
  p_n : int;
  p_seq_units : float;
  p_build_units : float;
  p_per_module : float;
  p_efficiency : float;
  p_cold_units : float;
  p_warm_units : float;
  p_warm_hits : int;
  p_evictions : int;
  p_warm_cold_ok : bool;
  p_serve_mean : float;
  p_serve_throughput : float;
  p_farm_makespan : float;
  p_farm_ok : bool;
}

type report = {
  s_seed : int;
  s_procs : int;
  s_counts : int list;
  s_farm_cap : int;
  s_cap_modules : int;
  s_cap_bytes : int;
  s_points : point list;
  s_scheduler_knee : int option;
  s_cache_knee : int option;
  s_serve_verified : int;
  s_farm_verified : bool;
  s_sample : bool;
}

let default_counts = [ 100; 300; 1000; 3000; 10000 ]
let sample_counts = [ 50; 100; 200 ]

(* --- the flat interface family ------------------------------------- *)

let def_name k = Printf.sprintf "Sc%05d" k

let def_src ~seed k =
  let m = def_name k in
  Printf.sprintf "DEFINITION MODULE %s;\nCONST c%05d = %d;\nEND %s.\n" m k
    (((k + seed) mod 9) + 1)
    m

let flat_store ?(seed = 0) n =
  let defs = List.init n (fun k -> (def_name k, def_src ~seed k)) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "IMPLEMENTATION MODULE ZScale;\n";
  List.iter (fun (m, _) -> Buffer.add_string b (Printf.sprintf "IMPORT %s;\n" m)) defs;
  Buffer.add_string b "VAR total: INTEGER;\nBEGIN\n  total := 0;\n";
  List.iteri
    (fun i (m, _) ->
      if i < 16 then
        Buffer.add_string b (Printf.sprintf "  total := total + %s.c%05d;\n" m i))
    defs;
  Buffer.add_string b "  WriteInt(total)\nEND ZScale.\n";
  Source_store.make ~main_name:"ZScale" ~main_src:(Buffer.contents b) ~defs ()

(* A serve job's program: one main importing a distinct slice of the
   interface family, so [jobs] jobs at count [n] together pull [n]
   distinct interfaces into the shared warm store. *)
let job_store ~seed ~n ~jobs j =
  let lo = j * n / jobs and hi = ((j + 1) * n / jobs) - 1 in
  let defs = List.init (hi - lo + 1) (fun i -> (def_name (lo + i), def_src ~seed (lo + i))) in
  let name = Printf.sprintf "ZJob%02d" j in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "IMPLEMENTATION MODULE %s;\n" name);
  List.iter (fun (m, _) -> Buffer.add_string b (Printf.sprintf "IMPORT %s;\n" m)) defs;
  Buffer.add_string b "VAR total: INTEGER;\nBEGIN\n  total := 0;\n";
  (match defs with
  | (m, _) :: _ -> Buffer.add_string b (Printf.sprintf "  total := total + %s.c%05d;\n" m lo)
  | [] -> ());
  Buffer.add_string b (Printf.sprintf "  WriteInt(total)\nEND %s.\n" name);
  Source_store.make ~main_name:name ~main_src:(Buffer.contents b) ~defs ()

let store_bytes store =
  let len name src = String.length (Option.value ~default:"" src) + String.length name in
  List.fold_left (fun acc d -> acc + len d (Source_store.def_src store d)) 0 (Source_store.def_names store)
  + String.length (Source_store.main_src store)

(* --- the sweep ----------------------------------------------------- *)

let nolog (_ : string) = ()

let run ?(seed = 0) ?counts ?(procs = 8) ?(farm_cap = 1000) ?(sample = false)
    ?(log = nolog) () =
  let counts =
    match counts with Some cs -> cs | None -> if sample then sample_counts else default_counts
  in
  let counts = List.sort_uniq compare counts in
  (match counts with [] -> invalid_arg "Scale.run: empty count list" | _ -> ());
  let max_n = List.fold_left max 0 counts in
  let min_n = List.hd counts in
  let config = { Driver.default_config with Driver.procs } in
  (* Calibrate the per-interface artifact size at the smallest count,
     then derive the bounded store's capacity so the working set
     outgrows it inside the sweep: cap_modules = 2/5 of the largest
     swept count. *)
  let cap_modules = max 1 (2 * max_n / 5) in
  let per_iface =
    let bc = Build_cache.create () and store = flat_store ~seed min_n in
    ignore (Driver.compile ~config ~cache:(Build_cache.graph bc store) store);
    max 1 (Build_cache.total_bytes bc / min_n)
  in
  let cap_bytes = per_iface * cap_modules in
  log
    (Printf.sprintf
       "scale: counts %s, procs %d, cache cap %d modules (%d bytes), farm cap %d"
       (String.concat "," (List.map string_of_int counts))
       procs cap_modules cap_bytes farm_cap);
  let serve_verified = ref 0 in
  let farm_verified = ref false in
  let largest_farm =
    List.fold_left (fun acc c -> if c <= farm_cap then max acc c else acc) 0 counts
  in
  let points =
    List.map
      (fun n ->
        let store = flat_store ~seed n in
        (* scheduler: one concurrent build over n def streams *)
        let seq = Seq_driver.compile store in
        let conc = Driver.compile ~config store in
        let build_units = conc.Driver.sim.Mcc_sched.Des_engine.end_time in
        (* cache: cold then warm against the size-bounded store *)
        let bc = Build_cache.create ~cap_bytes () in
        let g = Build_cache.graph bc store in
        let cold = Driver.compile ~config ~cache:g store in
        let warm = Driver.compile ~config ~cache:g store in
        let warm_cold_ok =
          Obs.first_diff
            ~reference:(Obs.of_driver ~run:false cold)
            (Obs.of_driver ~run:false warm)
          = None
        in
        (* serve: 8 clients, each compiling a distinct interface slice *)
        let jobs_n = 8 in
        let jobs =
          List.init jobs_n (fun j ->
              let jstore = job_store ~seed ~n ~jobs:jobs_n j in
              {
                Mcc_serve.Request.j_id = j;
                j_session = Printf.sprintf "client%d" (j mod 4);
                j_priority = 1;
                j_arrival = 0.1 *. float_of_int j;
                j_rank = j;
                j_store = jstore;
                j_bytes = store_bytes jstore;
                j_closure = Mcc_serve.Request.closure_digest jstore;
              })
        in
        let scfg = { Mcc_serve.Server.default_config with Mcc_serve.Server.compile = config } in
        let sreport = Mcc_serve.Server.serve ~cache:(Mcc_serve.Server.cache ()) scfg jobs in
        if n = min_n then (
          match Mcc_serve.Server.verify scfg sreport with
          | Ok served -> serve_verified := served
          | Error msg -> failwith (Printf.sprintf "scale: serve oracle at n=%d: %s" n msg));
        (* farm: one sharded closure per interface — an inner engine
           spin-up each, so counts above the cap skip the stage *)
        let farm_makespan, farm_ok =
          if n > farm_cap then (-1.0, true)
          else begin
            let fcfg = { Mcc_farm.Farm.default_config with Mcc_farm.Farm.compile = config } in
            let freport = Mcc_farm.Farm.run fcfg store in
            if n = largest_farm then (
              match Mcc_farm.Farm.verify store freport with
              | Ok () -> farm_verified := true
              | Error msg -> failwith (Printf.sprintf "scale: farm oracle at n=%d: %s" n msg));
            (freport.Mcc_farm.Farm.f_makespan, freport.Mcc_farm.Farm.f_ok)
          end
        in
        let point =
          {
            p_n = n;
            p_seq_units = seq.Seq_driver.cost_units;
            p_build_units = build_units;
            p_per_module = build_units /. float_of_int n;
            p_efficiency = seq.Seq_driver.cost_units /. (float_of_int procs *. build_units);
            p_cold_units = cold.Driver.sim.Mcc_sched.Des_engine.end_time;
            p_warm_units = warm.Driver.sim.Mcc_sched.Des_engine.end_time;
            p_warm_hits = List.length warm.Driver.cache_hits;
            p_evictions = Build_cache.eviction_count bc;
            p_warm_cold_ok = warm_cold_ok;
            p_serve_mean = sreport.Mcc_serve.Server.r_mean;
            p_serve_throughput = sreport.Mcc_serve.Server.r_throughput;
            p_farm_makespan = farm_makespan;
            p_farm_ok = farm_ok;
          }
        in
        log
          (Printf.sprintf
             "  n=%5d build=%.0fu eff=%.3f warm=%.0fu hits=%d evict=%d serve=%.2fs farm=%s" n
             point.p_build_units point.p_efficiency point.p_warm_units point.p_warm_hits
             point.p_evictions point.p_serve_mean
             (if farm_makespan < 0.0 then "skipped" else Printf.sprintf "%.2fs" farm_makespan));
        point)
      counts
  in
  (* knees, per the .mli's definitions *)
  let last = List.nth points (List.length points - 1) in
  let scheduler_knee =
    List.find_opt (fun p -> p.p_per_module <= 1.05 *. last.p_per_module) points
    |> Option.map (fun p -> p.p_n)
  in
  let cache_knee =
    List.find_opt (fun p -> p.p_evictions > 0) points |> Option.map (fun p -> p.p_n)
  in
  {
    s_seed = seed;
    s_procs = procs;
    s_counts = counts;
    s_farm_cap = farm_cap;
    s_cap_modules = cap_modules;
    s_cap_bytes = cap_bytes;
    s_points = points;
    s_scheduler_knee = scheduler_knee;
    s_cache_knee = cache_knee;
    s_serve_verified = !serve_verified;
    s_farm_verified = !farm_verified;
    s_sample = sample;
  }

(* --- rendering ----------------------------------------------------- *)

let to_json r =
  let opt_int = function Some n -> J.Int n | None -> J.Null in
  J.Obj
    [
      ("seed", J.Int r.s_seed);
      ("procs", J.Int r.s_procs);
      ("counts", J.Arr (List.map (fun n -> J.Int n) r.s_counts));
      ("farm_cap", J.Int r.s_farm_cap);
      ("cap_modules", J.Int r.s_cap_modules);
      ("cap_bytes", J.Int r.s_cap_bytes);
      ("sample", J.Bool r.s_sample);
      ( "points",
        J.Arr
          (List.map
             (fun p ->
               J.Obj
                 [
                   ("n", J.Int p.p_n);
                   ("seq_units", J.Float p.p_seq_units);
                   ("build_units", J.Float p.p_build_units);
                   ("per_module", J.Float p.p_per_module);
                   ("efficiency", J.Float p.p_efficiency);
                   ("cold_units", J.Float p.p_cold_units);
                   ("warm_units", J.Float p.p_warm_units);
                   ("warm_hits", J.Int p.p_warm_hits);
                   ("evictions", J.Int p.p_evictions);
                   ("warm_cold_ok", J.Bool p.p_warm_cold_ok);
                   ("serve_mean", J.Float p.p_serve_mean);
                   ("serve_throughput", J.Float p.p_serve_throughput);
                   ("farm_makespan", J.Float p.p_farm_makespan);
                   ("farm_ok", J.Bool p.p_farm_ok);
                 ])
             r.s_points) );
      ("scheduler_knee", opt_int r.s_scheduler_knee);
      ("cache_knee", opt_int r.s_cache_knee);
      ("serve_verified", J.Int r.s_serve_verified);
      ("farm_verified", J.Bool r.s_farm_verified);
    ]

let render r =
  let lines = ref [] in
  let say fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  say "scale sweep: procs=%d, cache cap=%d modules, farm cap=%d%s" r.s_procs r.s_cap_modules
    r.s_farm_cap
    (if r.s_sample then " (sample)" else "");
  say "  %6s %12s %10s %6s %12s %6s %7s %10s %10s" "n" "build(u)" "per-mod" "eff" "warm(u)"
    "hits" "evict" "serve(s)" "farm(s)";
  List.iter
    (fun p ->
      say "  %6d %12.1f %10.2f %6.3f %12.1f %6d %7d %10.3f %10s" p.p_n p.p_build_units
        p.p_per_module p.p_efficiency p.p_warm_units p.p_warm_hits p.p_evictions p.p_serve_mean
        (if p.p_farm_makespan < 0.0 then "-" else Printf.sprintf "%.3f" p.p_farm_makespan))
    r.s_points;
  (match r.s_scheduler_knee with
  | Some n ->
      say "  scheduler knee: n=%d (per-module cost within 5%% of the n=%d asymptote)" n
        (List.fold_left max 0 r.s_counts)
  | None -> say "  scheduler knee: not reached in this sweep");
  (match r.s_cache_knee with
  | Some n -> say "  cache knee: n=%d (working set outgrows the %d-module store)" n r.s_cap_modules
  | None -> say "  cache knee: not reached in this sweep");
  List.rev !lines
