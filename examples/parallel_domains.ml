(* Real shared-memory parallelism: the same compiler task graph on OCaml
   domains (the analogue of the paper's Topaz threads on the Firefly).

     dune exec examples/parallel_domains.exe

   The simulated engine reproduces the paper's *measurements*; this
   engine demonstrates that the task/event machinery is genuinely
   thread-safe: lexing, splitting, importing, parsing and code generation
   race on real domains and still produce a program byte-identical to the
   sequential compiler's.  (Wall-clock speedup depends on the host's core
   count.)

   The last check runs two compiles at once: the 2-domain compile of the
   same program while a spawned domain runs a DES compile of another.
   Each domain has its own run state, so both outputs are byte-identical
   to the same compiles run alone.  Any mismatch exits nonzero. *)

open Mcc_core
open Mcc_synth

let () =
  let store = Suite.program 15 in
  Printf.printf "module %s (%d bytes, %d interfaces)\n\n" (Source_store.main_name store)
    (String.length (Source_store.main_src store))
    (List.length (Source_store.def_names store));
  let seq = Seq_driver.compile store in
  Printf.printf "sequential compiler: ok=%b, %d code units\n" seq.Seq_driver.ok
    (List.length (Mcc_codegen.Cunit.unit_keys seq.Seq_driver.program));
  let reference = Mcc_codegen.Cunit.disassemble seq.Seq_driver.program in
  List.iter
    (fun domains ->
      let d = Driver.compile_domains ~domains store in
      let same = String.equal reference (Mcc_codegen.Cunit.disassemble d.Driver.d_program) in
      Printf.printf
        "domains=%d: ok=%b, %d tasks executed in %.4f s wall, output identical to sequential: %b\n"
        domains d.Driver.d_ok d.Driver.d_tasks_run d.Driver.d_wall_seconds same;
      assert same)
    [ 1; 2; 4; 8 ];
  print_endline "\nevery run produced byte-identical object code: the merge-by-key design makes";
  print_endline "compiler output independent of scheduling (paper section 2.1).";
  let diags ds = List.map Mcc_m2.Diag.to_string ds in
  let des () =
    let r = Driver.compile (Suite.program 20) in
    ( Mcc_codegen.Cunit.disassemble r.Driver.program,
      diags r.Driver.diags,
      r.Driver.sim.Mcc_sched.Des_engine.end_time )
  in
  let on_domains () =
    let d = Driver.compile_domains ~domains:2 store in
    (Mcc_codegen.Cunit.disassemble d.Driver.d_program, diags d.Driver.d_diags)
  in
  let des_alone = des () and domains_alone = on_domains () in
  let beside = Domain.spawn des in
  let same_domains = on_domains () = domains_alone in
  let same_des = Domain.join beside = des_alone in
  Printf.printf "\ndomains=2 beside a DES compile of M20 on a spawned domain: both identical alone: %b\n"
    (same_des && same_domains);
  assert (same_des && same_domains)
