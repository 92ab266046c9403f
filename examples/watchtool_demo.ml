(* WatchTool: watch the concurrent compiler at work (paper Figs. 4/7).

     dune exec examples/watchtool_demo.exe

   Compiles a mid-size synthetic module on 8 simulated processors and
   renders the processor-activity view: lexing at the left, interface and
   declaration analysis in the middle, statement analysis/code generation
   dominating the right — with the mid-compilation lull the paper
   describes in §4.4.  Also prints the speedup curve for the module. *)

open Mcc_core
open Mcc_synth
open Mcc_stats

let () =
  let store = Suite.program 24 in
  Printf.printf "module %s (%d bytes)\n\n" (Source_store.main_name store)
    (String.length (Source_store.main_src store));
  let c = Driver.compile ~config:Driver.default_config ~capture:true store in
  let trace = Mcc_sched.Trace.of_log c.Driver.log in
  Printf.printf "%d streams, %d tasks, %.2f virtual seconds on 8 processors\n\n"
    c.Driver.n_streams c.Driver.n_tasks c.Driver.sim.Mcc_sched.Des_engine.end_seconds;
  print_endline Watchtool.legend;
  print_endline (Watchtool.render trace ~procs:8);
  print_endline (Watchtool.summary trace ~procs:8);
  print_endline "\n--- self-relative speedup ---";
  let sweep = Speedup.sweep store in
  List.iter
    (fun n ->
      let sp = Speedup.speedup sweep n in
      Printf.printf "  %d procs |%-60s| %.2f\n" n (String.make (int_of_float (sp *. 8.0)) '#') sp)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]
