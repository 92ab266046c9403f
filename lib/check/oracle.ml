open Mcc_sem
open Mcc_core

type cache_mode = No_cache | Warm

type cell = {
  strategy : Symtab.dky;
  procs : int;
  perturb : int option;
  cache : cache_mode;
  faults : string;
  fault_seed : int;
}

type plant = Tamper_cache of string

let plant_for store =
  match Source_store.def_names store with
  | [] -> None
  | name :: _ -> Some (Tamper_cache name)

type divergence = {
  d_cell : cell;
  d_field : string;
  d_expected : string;
  d_actual : string;
}

let cell_to_string c =
  let buf = Buffer.create 48 in
  Buffer.add_string buf (Symtab.dky_name c.strategy);
  Buffer.add_string buf (Printf.sprintf "/p%d" c.procs);
  (match c.perturb with
  | None -> ()
  | Some s -> Buffer.add_string buf (Printf.sprintf "/perturb=%d" s));
  (match c.cache with
  | No_cache -> ()
  | Warm -> Buffer.add_string buf "/warm");
  if c.faults <> "" then
    Buffer.add_string buf (Printf.sprintf "/faults=%s#%d" c.faults c.fault_seed);
  Buffer.contents buf

let divergence_to_string d =
  Printf.sprintf "[%s] %s: expected %s, got %s" (cell_to_string d.d_cell) d.d_field
    d.d_expected d.d_actual

let cell strategy procs =
  { strategy; procs; perturb = None; cache = No_cache; faults = ""; fault_seed = 0 }

let matrix ~strategies ~procs =
  List.concat_map (fun s -> List.map (fun p -> cell s p) procs) strategies

let default_matrix = matrix ~strategies:Symtab.all_concurrent ~procs:[ 1; 2; 8 ]

let reference ?input ~run store = Observation.of_seq ?input ~run (Seq_driver.compile store)

let config_of c =
  {
    Driver.default_config with
    Driver.strategy = c.strategy;
    procs = c.procs;
    perturb = c.perturb;
    faults = (if c.faults = "" then [] else Mcc_sched.Fault.parse_list c.faults);
    fault_seed = c.fault_seed;
  }

let run_cell ?input ?plant ~run ~reference store c =
  let config = config_of c in
  let obs =
    match c.cache with
    | No_cache -> Observation.of_driver ?input ~run (Driver.compile ~config store)
    | Warm ->
        let bc = Build_cache.create () in
        let cache = Build_cache.graph bc store in
        (* Prime fault-free so the cache holds pristine artifacts; the
           measured warm compile below carries the cell's fault plan. *)
        ignore
          (Driver.compile
             ~config:{ config with Driver.faults = []; perturb = None }
             ~cache store);
        (match plant with
        | Some (Tamper_cache name) ->
            Build_cache.tamper bc ~name;
            Build_cache.disable_verification bc
        | None -> ());
        Observation.of_driver ?input ~run (Driver.compile ~config ~cache store)
  in
  match Observation.first_diff ~reference obs with
  | None -> None
  | Some (d_field, d_expected, d_actual) ->
      Some { d_cell = c; d_field; d_expected; d_actual }

let check ?input ?plant ~run store cells =
  let reference = reference ?input ~run store in
  List.filter_map (fun c -> run_cell ?input ?plant ~run ~reference store c) cells
