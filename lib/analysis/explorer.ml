(* The schedule explorer.

   The DES engine is deterministic, so one compile exercises exactly one
   interleaving.  The explorer widens the net: it re-runs the same
   compilation many times with the Supervisor's ready-queue tie-breaking
   perturbed by a seeded PRNG (every perturbed run is still a legal
   Supervisor schedule — see Supervisor.create), across the DKY strategy
   x processor-count matrix, and asserts two things per run:

   - the happens-before checker finds no violations in the captured
     event log (Hb.check);
   - the compiler's *output* — object code disassembly and sorted
     diagnostics — is byte-identical to the cell's unperturbed baseline.

   Together these are the reproduction of the paper's implicit claim
   that DKY synchronization makes the concurrent compiler's result
   schedule-independent.

   [~inject_early_publish:scope] arms a deterministic early-complete
   fault plan (Mcc_sched.Fault) for every run, to prove the checker
   actually catches a seeded early-publish bug. *)

open Mcc_util
open Mcc_sched
open Mcc_sem
open Mcc_core

type run = {
  perturb_seed : int option; (* None = the canonical baseline schedule *)
  hb : Hb.report;
  equivalent : bool; (* output matches the cell's baseline *)
  deadlocked : bool;
}

type cell = {
  strategy : Symtab.dky;
  procs : int;
  runs : run list; (* baseline first, then the perturbed schedules *)
  cell_violations : int;
  cell_divergent : int; (* perturbed runs whose output differed *)
}

type report = {
  cells : cell list;
  schedules_explored : int; (* every run, baselines included *)
  total_violations : int;
  divergent_runs : int;
  all_equivalent : bool;
  violation_samples : string list; (* up to [sample_cap] rendered violations *)
}

let sample_cap = 8

(* The deliberate early-publish bug, armed through the config: each
   compile makes a fresh plan from it, so every schedule sees the same
   early completion at its first matching entry. *)
let injection = function
  | None -> []
  | Some s ->
      Fault.
        [ { kind = Early_complete; target = Some s; at = Some 1; rate = None; permanent = false } ]

(* What "same output" means: the canonical observation of a compile. *)
let fingerprint r = Mcc_check.Observation.of_driver ~run:false r

let explore ?(schedules = 8) ?(seed = 1) ?(strategies = Symtab.all_concurrent)
    ?(procs_list = [ 1; 2; 4; 8 ]) ?inject_early_publish (store : Mcc_core.Source_store.t) : report
    =
  if schedules < 0 then invalid_arg "Explorer.explore: negative schedule count";
  let master = Prng.create seed in
  let samples = ref [] and n_samples = ref 0 in
  let take_samples (hb : Hb.report) =
    List.iter
      (fun v ->
        if !n_samples < sample_cap then begin
          samples := Hb.violation_to_string v :: !samples;
          incr n_samples
        end)
      hb.Hb.violations
  in
  let cells =
    List.concat_map
      (fun strategy ->
        List.map
          (fun procs ->
            let config =
              {
                Driver.default_config with
                Driver.strategy;
                procs;
                perturb = None;
                faults = injection inject_early_publish;
              }
            in
            let run_one ~config = Driver.compile ~config ~capture:true store in
            let base = run_one ~config in
            let base_fp = fingerprint base in
            let mk_run seed_opt (r : Driver.result) =
              let hb = Hb.check r.Driver.log in
              take_samples hb;
              {
                perturb_seed = seed_opt;
                hb;
                equivalent =
                  Mcc_check.Observation.first_diff ~reference:base_fp (fingerprint r) = None;
                deadlocked =
                  (match r.Driver.sim.Mcc_sched.Des_engine.outcome with
                  | Mcc_sched.Des_engine.Deadlocked _ -> true
                  | Mcc_sched.Des_engine.Completed -> false);
              }
            in
            let baseline = mk_run None base in
            let perturbed =
              List.init schedules (fun _ ->
                  let s = Prng.int master 0x3FFFFFFF in
                  let config = { config with Driver.perturb = Some s } in
                  mk_run (Some s) (run_one ~config))
            in
            let runs = baseline :: perturbed in
            {
              strategy;
              procs;
              runs;
              cell_violations =
                List.fold_left (fun acc r -> acc + List.length r.hb.Hb.violations) 0 runs;
              cell_divergent =
                List.length (List.filter (fun r -> not r.equivalent) perturbed);
            })
          procs_list)
      strategies
  in
  let total_violations = List.fold_left (fun acc c -> acc + c.cell_violations) 0 cells in
  let divergent_runs = List.fold_left (fun acc c -> acc + c.cell_divergent) 0 cells in
  {
    cells;
    schedules_explored = List.fold_left (fun acc c -> acc + List.length c.runs) 0 cells;
    total_violations;
    divergent_runs;
    all_equivalent = divergent_runs = 0;
    violation_samples = List.rev !samples;
  }

let clean r = r.total_violations = 0 && r.all_equivalent

(* The matrix, one row per (strategy, procs) cell. *)
let render (r : report) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-12s %5s %9s %10s %9s %8s\n" "strategy" "procs" "schedules" "violations"
       "divergent" "deadlock");
  List.iter
    (fun c ->
      let deadlocks = List.length (List.filter (fun x -> x.deadlocked) c.runs) in
      Buffer.add_string buf
        (Printf.sprintf "%-12s %5d %9d %10d %9d %8d\n" (Symtab.dky_name c.strategy) c.procs
           (List.length c.runs) c.cell_violations c.cell_divergent deadlocks))
    r.cells;
  Buffer.add_string buf
    (Printf.sprintf "total: %d runs, %d violations, %d divergent — %s\n" r.schedules_explored
       r.total_violations r.divergent_runs
       (if clean r then "CLEAN" else "VIOLATIONS DETECTED"));
  List.iter (fun s -> Buffer.add_string buf ("  " ^ s ^ "\n")) r.violation_samples;
  Buffer.contents buf
