(* The four workloads.  Each one's set-up builds its inputs from the
   seed; a round repeats a fixed set of operations, timing each one and
   checking every output outside the timers; a traced round times the
   layers underneath the same operations.

   The warm-up computes the references outputs are compared with: the
   [Seq_driver] disassembly for compiles, a cold build (or, for some
   edits, the first round's build) for incremental builds, and the OCaml
   reference for kernel runs. *)

open Mcc_core
module Gen = Mcc_synth.Gen
module Suite = Mcc_synth.Suite
module Scale = Mcc_zoo.Scale
module Vm = Mcc_vm.Vm
module Cunit = Mcc_codegen.Cunit
module Diag = Mcc_m2.Diag
module Des = Mcc_sched.Des_engine
module Domain_engine = Mcc_sched.Domain_engine
module Prng = Mcc_util.Prng

type checks = { mutable attempted : int; mutable failed : int }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

type env = {
  seed : int;
  smoke : bool;  (** first 3 suite programs, 100 scale modules *)
  work : string;  (** scratch directory for on-disk build caches *)
  checks : checks;
}

type round = {
  wall : float;  (** seconds inside timed operations *)
  ops : float list;  (** latency of each timed operation, seconds *)
  detail : (string * float) list;  (** this round's workload-specific figures *)
}

type instance = {
  warm_up : unit -> unit;
      (** untimed, before the first timed or traced round: computes the
          references and runs the code the rounds time at least once *)
  round : unit -> round;
  traced : unit -> (string * float) list;
}

type t = {
  name : string;
  setup : env -> instance;
  smoke_rounds : int;  (** rounds at smoke size *)
}

let sum = List.fold_left ( +. ) 0.0
let ms s = s *. 1000.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let digest p = Digest.string (Cunit.disassemble p)
let diag_strings ds = List.map Diag.to_string ds

(* Timed calls.  Each output is reduced by [reduce] (to a digest, say)
   outside the clock, so that no output stays live while the next call
   is timed.  A pass keeps the reduced outputs, each call's time, and
   the minor and major collections inside the calls. *)
type 'a pass = { outs : 'a list; times : float list; minor : float; major : float }

let call f reduce x =
  let m0, j0 = Timing.collections () in
  let r, dt = Timing.time (fun () -> f x) in
  let m1, j1 = Timing.collections () in
  (reduce r, dt, m1 - m0, j1 - j0)

let of_calls calls =
  let total get = float_of_int (List.fold_left (fun a c -> a + get c) 0 calls) in
  {
    outs = List.map (fun (o, _, _, _) -> o) calls;
    times = List.map (fun (_, t, _, _) -> t) calls;
    minor = total (fun (_, _, m, _) -> m);
    major = total (fun (_, _, _, j) -> j);
  }

let pass f reduce xs = of_calls (List.map (call f reduce) xs)

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* The Table 1 suite for [seed], generated afresh on every call
   ([Suite.program] memoizes, which would make repeated set-ups free):
   the same stores [Suite.all ~seed] returns, which the first round
   checks. *)
let suite_programs env =
  let n = if env.smoke then 3 else Suite.n_programs in
  List.filteri (fun rank _ -> rank < n) Suite.shapes
  |> List.map (fun (shape : Gen.shape) ->
         let base = shape.Gen.seed in
         Gen.generate ~seed:(if env.seed = 0 then base else base + (env.seed * 1_000_003)) shape)

let same_store a b =
  let defs s = List.map (fun d -> (d, Source_store.def_src s d)) (Source_store.def_names s) in
  Source_store.main_name a = Source_store.main_name b
  && Source_store.main_src a = Source_store.main_src b
  && defs a = defs b

let check_suite_inputs env programs =
  List.iteri
    (fun rank s ->
      check env.checks
        (same_store s (Suite.program ~seed:env.seed rank))
        (Printf.sprintf "suite program %d differs from Suite.program" rank))
    programs

(* ------------------------------------------------------------------ *)
(* The compile-layer ledger: every store compiled by [Seq_driver] and
   by the traced wiring, the traced output checked against the
   untraced one. *)

type ledger = {
  seq_wall : float;
  seq_minor : float;
  seq_major : float;
  layers : (string * float) list;
}

let ledger env stores =
  let output program diags = (digest program, diag_strings diags) in
  let seq = call Seq_driver.compile (fun r -> output r.Seq_driver.program r.Seq_driver.diags) in
  let sp = Spans.create () in
  let traced =
    call (Seq_traced.compile sp) (fun r ->
        let program = r.Seq_traced.program in
        (output program r.Seq_traced.diags, r.Seq_traced.files, Cunit.total_instrs program))
  in
  (* Each store through both, alternating which goes first, so the two
     walls see the same machine. *)
  let pairs =
    List.mapi
      (fun i s ->
        if i mod 2 = 0 then
          let a = seq s in
          (a, traced s)
        else
          let b = traced s in
          (seq s, b))
      stores
  in
  let seq = of_calls (List.map fst pairs) and traced = of_calls (List.map snd pairs) in
  List.iter2
    (fun s (t, _, _) -> check env.checks (s = t) "traced layer wiring differs from Seq_driver")
    seq.outs traced.outs;
  let tokens = Seq_traced.lex sp (List.concat_map (fun (_, files, _) -> files) traced.outs) in
  let instrs = List.fold_left (fun a (_, _, n) -> a + n) 0 traced.outs in
  let seq_wall = sum seq.times and traced_wall = sum traced.times in
  let self = Spans.self_by_name sp in
  let get name =
    Option.value (List.assoc_opt name self)
      ~default:{ Spans.calls = 0; self_secs = 0.0; self_units = 0.0; self_words = 0.0 }
  in
  let lex = get "lex" and emit = get "emit" and link = get "link" in
  let parse =
    let p = get "parse" in
    {
      p with
      Spans.self_secs = p.Spans.self_secs -. lex.Spans.self_secs;
      self_units = p.self_units -. lex.self_units;
      self_words = p.self_words -. lex.self_words;
    }
  in
  let modelled = [ ("lex", lex); ("parse", parse); ("emit", emit) ] in
  let real_total = sum (List.map (fun (_, s) -> s.Spans.self_secs) modelled) in
  let virt_total = sum (List.map (fun (_, s) -> s.Spans.self_units) modelled) in
  let model =
    List.concat_map
      (fun (l, s) ->
        let real = ratio s.Spans.self_secs real_total in
        let virt = ratio s.Spans.self_units virt_total in
        [
          ("model." ^ l ^ ".real_share", real);
          ("model." ^ l ^ ".virtual_share", virt);
          ("model." ^ l ^ ".share_ratio", ratio real virt);
        ])
      modelled
  in
  let self_sum = lex.self_secs +. parse.self_secs +. emit.self_secs +. link.self_secs in
  {
    seq_wall;
    seq_minor = seq.minor;
    seq_major = seq.major;
    layers =
      [
        ("lex.self_ms", ms lex.self_secs);
        ("lex.tokens", float_of_int tokens);
        ("lex.mtok_s", ratio (float_of_int tokens) lex.self_secs /. 1e6);
        ("lex.alloc_mb", Timing.words_to_mb lex.self_words);
        ("parse.self_ms", ms parse.self_secs);
        ("parse.alloc_mb", Timing.words_to_mb parse.self_words);
        ("emit.self_ms", ms emit.self_secs);
        ("emit.alloc_mb", Timing.words_to_mb emit.self_words);
        ("emit.instrs", float_of_int instrs);
        ("link.self_ms", ms link.self_secs);
        ("trace.overhead_ratio", ratio traced_wall seq_wall);
        ("trace.self_sum_ratio", ratio self_sum seq_wall);
      ]
      @ model;
  }

(* ------------------------------------------------------------------ *)
(* suite-compile *)

(* [Driver.compile_domains ~domains:2] is left out: now and then it links
   a program with code missing, reporting no error, so a run that timed
   it would fail at random (README.md, "Known defect"). *)
let engines : (string * (Source_store.t -> Cunit.program * bool)) list =
  [
    ("seq", fun s -> let r = Seq_driver.compile s in (r.Seq_driver.program, r.Seq_driver.ok));
    ("des", fun s -> let r = Driver.compile s in (r.Driver.program, r.Driver.ok));
    ( "dom1",
      fun s ->
        let r = Driver.compile_domains ~domains:1 s in
        (r.Driver.d_program, r.Driver.d_ok) );
  ]

let rotate k l =
  let k = k mod List.length l in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let suite_compile env =
  let programs = suite_programs env in
  let bytes = List.fold_left (fun a s -> a + Source_store.total_bytes s) 0 programs in
  let kb = float_of_int bytes /. 1024.0 in
  let refs =
    lazy
      (check_suite_inputs env programs;
       List.map
         (fun s ->
           let r = Seq_driver.compile s in
           check env.checks r.Seq_driver.ok "suite program does not compile";
           digest r.Seq_driver.program)
         programs)
  in
  let check_engine name outs =
    List.iteri
      (fun rank ((d, ok), expected) ->
        check env.checks (ok && d = expected)
          (Printf.sprintf "%s on suite program %d: %s" name rank
             (if ok then "output differs from Seq_driver" else "compile failed")))
      (List.combine outs (Lazy.force refs))
  in
  let run_engine name =
    let p = pass (List.assoc name engines) (fun (program, ok) -> (digest program, ok)) programs in
    check_engine name p.outs;
    p
  in
  let rounds = ref 0 in
  let round () =
    ignore (Lazy.force refs);
    let order = rotate !rounds engines in
    incr rounds;
    let passes = List.map (fun (name, _) -> (name, run_engine name)) order in
    let w name = sum (List.assoc name passes).times in
    {
      wall = sum (List.map (fun (name, _) -> w name) passes);
      ops = List.concat_map (fun (_, p) -> p.times) passes;
      detail =
        [
          ("seq_kb_s", kb /. w "seq");
          ("compile_kb_s", kb /. w "des");
        ];
    }
  in
  let traced () =
    ignore (Lazy.force refs);
    let l = ledger env programs in
    let des =
      pass Driver.compile
        (fun r ->
          ( (digest r.Driver.program, r.Driver.ok),
            r.Driver.n_tasks,
            r.Driver.sim.Des.handled_blocks ))
        programs
    in
    check_engine "des" (List.map (fun (o, _, _) -> o) des.outs);
    let dom1 = run_engine "dom1" in
    let des_wall = sum des.times in
    let tasks = float_of_int (List.fold_left (fun a (_, n, _) -> a + n) 0 des.outs) in
    let blocks = float_of_int (List.fold_left (fun a (_, _, n) -> a + n) 0 des.outs) in
    let empty =
      List.init 20 (fun _ -> snd (Timing.time (fun () -> Domain_engine.run ~domains:2 [])))
    in
    l.layers
    @ [
        ("sched.des_overhead_ms", ms (des_wall -. l.seq_wall));
        ("sched.tasks", tasks);
        ("sched.us_per_task", ratio (des_wall -. l.seq_wall) tasks *. 1e6);
        ("sched.handled_blocks", blocks);
        ("dom.overhead_ms", ms (sum dom1.times -. l.seq_wall));
        ("dom.run_empty_us", Timing.median empty *. 1e6);
        ("gc.seq.minor", l.seq_minor);
        ("gc.seq.major", l.seq_major);
        ("gc.des.minor", des.minor);
        ("gc.des.major", des.major);
        ("gc.dom1.minor", dom1.minor);
        ("gc.dom1.major", dom1.major);
      ]
  in
  { warm_up = (fun () -> ignore (round ())); round; traced }

(* ------------------------------------------------------------------ *)
(* project-edit and project-scale: the [m2c build] step, load + compile
   + save against an on-disk cache, for a cold build, a no-op build and
   every edit of each project in turn. *)

type project = { base : Source_store.t; edits : Gen.edit list }

(* One build of a round.  [expected] is the program digest it must
   produce: a cold build's, or, for an edit not compared with a cold
   build, that of the same step's build in the run's first round. *)
type step = { store : Source_store.t; edit : Gen.edit option; mutable expected : string option }

let class_key e =
  String.map (fun c -> if c = '-' then '_' else c) (Gen.class_name e.Gen.e_class)

(* [cold_checked] of each project's edits, a seeded choice, are
   compared with a cold build, as are its cold and no-op builds: one
   cold build costs about as much as five edit builds. *)
let projects_workload env ~check_inputs ~cold_checked projects =
  let dir = Filename.concat env.work "cache" in
  let build store =
    let c = Project.cache ~dir () in
    let r = Project.compile ~cache:c store in
    Project.save c;
    r
  in
  (* A cold build: an empty in-memory cache, which shares interfaces
     within the one build and remembers nothing from earlier ones. *)
  let reference store =
    let r = Project.compile ~cache:(Project.cache ()) store in
    check env.checks r.Project.ok "project does not compile";
    Some (digest r.Project.program)
  in
  let rng = Prng.create ((env.seed * 7919) + 1) in
  let cold_checked_edits n =
    let order = Array.init n Fun.id in
    Prng.shuffle rng order;
    Array.to_list (Array.sub order 0 (min cold_checked n))
  in
  (* Every step of one round, per project: cold, no-op, then each edit. *)
  let steps =
    lazy
      (check_inputs ();
       List.map
         (fun p ->
           let base = reference p.base in
           let checked = cold_checked_edits (List.length p.edits) in
           { store = p.base; edit = None; expected = base }
           :: { store = p.base; edit = None; expected = base }
           :: List.mapi
                (fun i e ->
                  let store = e.Gen.e_store in
                  { store; edit = Some e; expected = (if List.mem i checked then reference store else None) })
                p.edits)
         projects)
  in
  let check_build what (r : Project.result) step =
    let d = digest r.Project.program in
    if step.expected = None then step.expected <- Some d;
    check env.checks
      (r.Project.ok && step.expected = Some d)
      (what ^ " build differs from a cold build or from the first round's")
  in
  let round () =
    let cold = ref 0.0 and noop = ref 0.0 and ops = ref [] in
    List.iter
      (fun project_steps ->
        Files.rm_rf dir;
        List.iteri
          (fun i step ->
            let r, dt = Timing.time (fun () -> build step.store) in
            match i with
            | 0 ->
                cold := !cold +. dt;
                check_build "cold" r step
            | 1 ->
                noop := !noop +. dt;
                check_build "no-op" r step;
                check env.checks (r.Project.recompiled = []) "no-op build recompiled a module"
            | _ ->
                ops := dt :: !ops;
                check_build "edit" r step)
          project_steps)
      (Lazy.force steps);
    Files.rm_rf dir;
    let edits = sum !ops in
    {
      wall = !cold +. !noop +. edits;
      ops = !ops;
      detail =
        [
          ("cold_build_s", !cold);
          ("noop_build_s", !noop);
          ("edit_replay_s", edits);
        ];
    }
  in
  let traced () =
    let series = Hashtbl.create 16 and counts = Hashtbl.create 16 and rebuilt = ref [] in
    let add name v =
      Hashtbl.replace series name (v :: Option.value (Hashtbl.find_opt series name) ~default:[])
    in
    let count name n =
      Hashtbl.replace counts name (n + Option.value (Hashtbl.find_opt counts name) ~default:0)
    in
    let step ({ store; edit; _ } as s) =
      let c, load = Timing.time (fun () -> Project.cache ~dir ()) in
      let r, compile = Timing.time (fun () -> Project.compile ~cache:c store) in
      let (), save = Timing.time (fun () -> Project.save c) in
      check_build "traced" r s;
      let _, init_order = Timing.time (fun () -> Project.init_order store) in
      let memo = Hashtbl.create 64 in
      let (), fingerprint =
        Timing.time (fun () ->
            List.iter
              (fun d -> ignore (Build_cache.interface_fp c.Project.bc ~memo ~store d))
              (Source_store.def_names store))
      in
      let artifacts = Build_cache.interfaces c.Project.bc in
      let verified, verify = Timing.time (fun () -> List.for_all Artifact.verify artifacts) in
      check env.checks verified "stored artifact fails verification";
      let blob, marshal = Timing.time (fun () -> Marshal.to_string artifacts []) in
      List.iter
        (fun (k, v) -> add k v)
        [
          ("cache.load_ms", ms load);
          ("project.compile_ms", ms compile);
          ("cache.save_ms", ms save);
          ("project.init_order_ms", ms init_order);
          ("cache.fingerprint_ms", ms fingerprint);
          ("artifact.verify_ms", ms verify);
          ("artifact.marshal_ms", ms marshal);
          ("artifact.bytes", float_of_int (String.length blob));
          ("cache.disk_bytes", float_of_int (Files.dir_bytes dir));
        ];
      let hits, misses, _ = Build_cache.counters c.Project.bc in
      let mhits, mmisses, _ = Build_cache.memo_counters c.Project.memo in
      count "iface.hits" hits;
      count "iface.probes" (hits + misses);
      count "memo.hits" mhits;
      count "memo.probes" (mhits + mmisses);
      Option.iter
        (fun e ->
          let k = class_key e in
          rebuilt := List.rev_map (Source_store.focus store) r.Project.recompiled @ !rebuilt;
          count (k ^ ".n") 1;
          count (k ^ ".recompiled") (List.length r.Project.recompiled);
          count (k ^ ".reused") (List.length r.Project.reused);
          count (k ^ ".cutoffs") (List.length r.Project.cutoffs))
        edit
    in
    List.iter
      (fun project_steps ->
        Files.rm_rf dir;
        List.iter step project_steps)
      (Lazy.force steps);
    Files.rm_rf dir;
    (* The compile layers' share of the edit rebuilds: every module an
       edit build recompiled, compiled again by the traced wiring. *)
    let l = ledger env (List.rev !rebuilt) in
    let c name = float_of_int (Option.value (Hashtbl.find_opt counts name) ~default:0) in
    l.layers
    @ Hashtbl.fold (fun k vs acc -> (k, Timing.median vs) :: acc) series []
    @ [
        ("cache.iface_hit_ratio", ratio (c "iface.hits") (c "iface.probes"));
        ("memo.hit_ratio", ratio (c "memo.hits") (c "memo.probes"));
      ]
    @ List.concat_map
        (fun k ->
          List.map
            (fun f -> (Printf.sprintf "project.%s.%s" k f, ratio (c (k ^ "." ^ f)) (c (k ^ ".n"))))
            [ "recompiled"; "reused"; "cutoffs" ])
        Catalog.edit_classes
  in
  (* The reference cold builds compile the round's stores with
     [Project.compile], so they are the warm-up.  A whole round on top
     would leave a project-edit run time for one timed round only. *)
  { warm_up = (fun () -> ignore (Lazy.force steps)); round; traced }

let project_edit env =
  let programs = suite_programs env in
  projects_workload env
    ~check_inputs:(fun () -> check_suite_inputs env programs)
    ~cold_checked:3
    (List.mapi
       (fun rank s ->
         {
           base = Gen.with_impls s;
           edits = Gen.edit_stream ~seed:((env.seed * 1009) + rank) ~n:12 s;
         })
       programs)

let project_scale env =
  let base = Gen.with_impls (Scale.flat_store ~seed:env.seed (if env.smoke then 100 else 3000)) in
  projects_workload env ~check_inputs:ignore ~cold_checked:6
    [ { base; edits = Gen.edit_stream ~seed:env.seed ~n:6 base } ]

(* ------------------------------------------------------------------ *)
(* vm-kernels *)

let vm_kernels env =
  let rng = Prng.create env.seed in
  let kernels =
    List.map
      (fun (k : Kernels.t) ->
        let file = "benchmark/kernels/" ^ k.Kernels.name ^ ".mod" in
        let store =
          Source_store.make ~main_name:k.Kernels.name ~main_src:(Files.read_file file) ~defs:[] ()
        in
        (k, store, Driver.compile store, k.Kernels.inputs (Prng.split rng)))
      Kernels.all
  in
  let expected =
    lazy
      (List.map
         (fun ((k : Kernels.t), _, (r : Driver.result), input) ->
           check env.checks r.Driver.ok (k.Kernels.name ^ " does not compile");
           k.Kernels.reference input)
         kernels)
  in
  let run_checked ((k : Kernels.t), _, (r : Driver.result), input) expected =
    let w0 = Timing.alloc_words () in
    let res, dt = Timing.time (fun () -> Vm.run ~input r.Driver.program) in
    let words = Timing.alloc_words () -. w0 in
    check env.checks
      (res.Vm.status = Vm.Finished && res.Vm.output = expected)
      (Printf.sprintf "%s: %s, output %S, expected %S" k.Kernels.name
         (Vm.status_to_string res.Vm.status) res.Vm.output expected);
    (dt, res.Vm.steps, words)
  in
  let round () =
    let runs = List.map2 run_checked kernels (Lazy.force expected) in
    let ops = List.map (fun (dt, _, _) -> dt) runs in
    { wall = sum ops; ops; detail = [] }
  in
  let traced () =
    let l = ledger env (List.map (fun (_, s, _, _) -> s) kernels) in
    let runs = List.map2 run_checked kernels (Lazy.force expected) in
    let secs = sum (List.map (fun (dt, _, _) -> dt) runs) in
    let steps = float_of_int (List.fold_left (fun a (_, n, _) -> a + n) 0 runs) in
    l.layers
    @ [
        ("vm.steps", steps);
        ("vm.msteps_s", ratio steps secs /. 1e6);
        ("vm.alloc_mb", Timing.words_to_mb (sum (List.map (fun (_, _, w) -> w) runs)));
      ]
    @ List.map2
        (fun ((k : Kernels.t), _, _, _) (dt, _, _) ->
          ("vm." ^ String.lowercase_ascii k.Kernels.name ^ ".ms", ms dt))
        kernels runs
  in
  { warm_up = (fun () -> ignore (round ())); round; traced }

let all =
  [
    { name = "suite-compile"; setup = suite_compile; smoke_rounds = 1 };
    { name = "project-edit"; setup = project_edit; smoke_rounds = 1 };
    { name = "project-scale"; setup = project_scale; smoke_rounds = 1 };
    { name = "vm-kernels"; setup = vm_kernels; smoke_rounds = 2 };
  ]
