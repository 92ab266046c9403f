(* The artifact pipeline: content-addressed interface cache and
   incremental whole-program builds.

   The load-bearing property is cold/warm equivalence: compiling against
   a warm cache — any DKY strategy, any processor count — must produce
   byte-identical object code and identical diagnostics to a cold
   compilation, because artifacts replay exactly the externally visible
   effects of the def-module streams they replace.  On top of that:
   fingerprint invalidation is precise (editing an interface invalidates
   exactly its transitive dependents), warm DES runs stay deterministic
   (the extended determinism property), Project reuse is per-module
   incremental, and the on-disk store round-trips. *)

open Tutil
open Mcc_core
module Des = Mcc_sched.Des_engine
module Symtab = Mcc_sem.Symtab
module Trace = Mcc_sched.Trace

let sample_src =
  modsrc
    ~imports:"IMPORT Lib;\nFROM Lib IMPORT base;"
    ~decls:
      {|CONST scaled = base * 2;
VAR g: INTEGER;
PROCEDURE Add(x, y: INTEGER): INTEGER;
BEGIN RETURN x + y END Add;|}
    ~body:"g := Add(Lib.limit, scaled); WriteInt(g)" ()

let sample_defs =
  [
    ( "Lib",
      "DEFINITION MODULE Lib;\nCONST base = 10;\nCONST limit = 5;\nVAR counter: INTEGER;\nEND Lib.\n"
    );
  ]

let sample_store () = store ~defs:sample_defs ~name:"T" sample_src

let config ~strategy ~procs = { Driver.default_config with Driver.strategy; procs }

(* --- cold/warm equivalence, all strategies x processor counts --- *)

let test_warm_equals_cold () =
  List.iter
    (fun strategy ->
      List.iter
        (fun procs ->
          let config = config ~strategy ~procs in
          let cold = Driver.compile ~config (sample_store ()) in
          let cache = Build_cache.create () in
          let warm1 = compile_cached ~config cache (sample_store ()) in
          let warm2 = compile_cached ~config cache (sample_store ()) in
          let tag = Printf.sprintf "%s/%d" (Symtab.dky_name strategy) procs in
          Alcotest.(check (list string)) (tag ^ ": first run misses") [ "Lib" ]
            warm1.Driver.cache_misses;
          Alcotest.(check (list string)) (tag ^ ": second run hits") [ "Lib" ]
            warm2.Driver.cache_hits;
          Alcotest.(check int) (tag ^ ": no def stream on hit") 0 warm2.Driver.n_def_streams;
          List.iter
            (fun (r : Driver.result) ->
              Alcotest.(check bool) (tag ^ ": program identical") true
                (String.equal (dis cold.Driver.program) (dis r.Driver.program));
              Alcotest.(check (list string)) (tag ^ ": diagnostics identical")
                (diag_strings cold.Driver.diags) (diag_strings r.Driver.diags))
            [ warm1; warm2 ])
        [ 1; 3; 8 ])
    Symtab.all_concurrent

(* A warm cache must save virtual work: the hit run replaces the
   interface's lex + parse + declaration analysis with hash + fetch. *)
let test_warm_is_cheaper () =
  let config = Driver.default_config in
  let cache = Build_cache.create () in
  let cold = compile_cached ~config cache (sample_store ()) in
  let warm = compile_cached ~config cache (sample_store ()) in
  Alcotest.(check bool) "warm end time strictly smaller" true
    (warm.Driver.sim.Des.end_time < cold.Driver.sim.Des.end_time)

(* --- property: random programs, warm == cold, diagnostics included --- *)

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"generated programs: warm cache == cold (all strategies)" ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let shape =
        {
          Mcc_synth.Gen.seed;
          name = "Q";
          n_defs = 3;
          depth = 2;
          n_procs = 4;
          nested_per_proc = 1;
          stmts_lo = 4;
          stmts_hi = 8;
          module_vars = 3;
          def_size = 1;
          pad = 0;
          runnable = false;
        }
      in
      let st = Mcc_synth.Gen.generate shape in
      let cold = Driver.compile st in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun procs ->
              let config = config ~strategy ~procs in
              let cache = Build_cache.create () in
              ignore (compile_cached ~config cache st);
              let warm = compile_cached ~config cache st in
              warm.Driver.cache_misses = []
              && warm.Driver.cache_hits <> []
              && String.equal (dis cold.Driver.program) (dis warm.Driver.program)
              && diag_strings cold.Driver.diags = diag_strings warm.Driver.diags)
            [ 1; 8 ])
        Symtab.all_concurrent)

(* --- precise invalidation: editing a def invalidates its dependents --- *)

let chain_defs ~c_const =
  [
    ("A", "DEFINITION MODULE A;\nCONST ka = 1;\nEND A.\n");
    ("B", "DEFINITION MODULE B;\nFROM C IMPORT kc;\nCONST kb = kc + 1;\nEND B.\n");
    ("C", Printf.sprintf "DEFINITION MODULE C;\nCONST kc = %d;\nEND C.\n" c_const);
  ]

let chain_src =
  modsrc ~imports:"IMPORT A, B;" ~decls:"VAR x: INTEGER;" ~body:"x := A.ka + B.kb" ()

let test_edit_invalidates_exactly_dependents () =
  let cache = Build_cache.create () in
  let st c = store ~defs:(chain_defs ~c_const:c) ~name:"T" chain_src in
  let r1 = compile_cached cache (st 10) in
  Alcotest.(check (list string)) "cold: all miss" [ "A"; "B"; "C" ] r1.Driver.cache_misses;
  let r2 = compile_cached cache (st 10) in
  Alcotest.(check (list string)) "warm: all hit" [ "A"; "B"; "C" ] r2.Driver.cache_hits;
  (* edit C: C itself and its dependent B must miss; A must still hit *)
  let r3 = compile_cached cache (st 11) in
  Alcotest.(check (list string)) "A unaffected" [ "A" ] r3.Driver.cache_hits;
  Alcotest.(check (list string)) "C and its dependent B recompiled" [ "B"; "C" ]
    r3.Driver.cache_misses;
  let _, _, invalidations = Build_cache.counters cache in
  Alcotest.(check int) "two artifacts invalidated" 2 invalidations;
  (* and the recompilation is sound: the edit is visible in the output *)
  let cold = Driver.compile (st 11) in
  Alcotest.(check bool) "edited program identical to cold" true
    (String.equal (dis cold.Driver.program) (dis r3.Driver.program))

(* A graph built from another store gives no fingerprint: the compile
   raises, and neither the interface whose text differs nor the one
   importing it gets an artifact.  (test_driver.ml checks the domain
   engine: this file forks, which domains would forbid.) *)
let test_foreign_graph_refused () =
  let st c = store ~defs:(chain_defs ~c_const:c) ~name:"T" chain_src in
  let cache = Build_cache.create () in
  (match Driver.compile ~cache:(Build_cache.graph cache (st 10)) (st 11) with
  | _ -> Alcotest.fail "a graph of another store was read"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun m -> Alcotest.(check bool) ("no artifact for " ^ m) true (Build_cache.latest cache m = None))
    [ "B"; "C" ]

(* A graph over a second cache shares the first graph's fingerprints,
   while its closure identities are the second cache's: the keys equal
   those of a graph built over that cache from the sources, and differ
   from the first graph's, whose cache holds artifacts; the first graph
   keeps its own. *)
let test_graph_over_other_cache () =
  let s = Mcc_synth.Gen.with_impls (Mcc_synth.Suite.program 3) in
  let warm = Build_cache.create () and empty = Build_cache.create () in
  ignore (compile_cached warm s);
  let modules = Source_store.impl_names s in
  let keys g = List.map (fun m -> fst (Build_cache.identity_key g ~config_tag:"t" m)) modules in
  let gw = Build_cache.graph warm s in
  let kw = keys gw in
  let over = Build_cache.graph_over empty gw and fresh = Build_cache.graph empty s in
  List.iter
    (fun d ->
      Alcotest.(check string) ("fingerprint of " ^ d)
        (fst (Build_cache.fingerprint fresh d))
        (fst (Build_cache.fingerprint over d)))
    (Build_cache.graph_defs fresh);
  Alcotest.(check (list string)) "keys of the second cache" (keys fresh) (keys over);
  Alcotest.(check bool) "other keys than the warm cache's" false (keys over = kw);
  Alcotest.(check (list string)) "the first graph keeps its keys" kw (keys gw)

(* --- diagnostics replay: erroneous interfaces cache faithfully --- *)

let test_erroneous_interface_replays_diags () =
  let defs = [ ("Bad", "DEFINITION MODULE Bad;\nVAR v: NoSuchType;\nEND Bad.\n") ] in
  let src = modsrc ~imports:"IMPORT Bad;" ~decls:"" ~body:"" () in
  let cache = Build_cache.create () in
  let cold = compile_cached cache (store ~defs ~name:"T" src) in
  let warm = compile_cached cache (store ~defs ~name:"T" src) in
  Alcotest.(check bool) "cold rejects" false cold.Driver.ok;
  Alcotest.(check (list string)) "warm hit" [ "Bad" ] warm.Driver.cache_hits;
  Alcotest.(check (list string)) "identical diagnostics from the artifact"
    (diag_strings cold.Driver.diags) (diag_strings warm.Driver.diags)

(* --- determinism: same seed + warm cache => identical trace --- *)

(* Task ids vary across runs (global counter); the schedule is compared
   by the engine-assigned (processor, class, interval, kind) segments. *)
let normalize_trace (r : Driver.result) =
  List.map
    (fun (s : Trace.seg) -> (s.Trace.proc, s.Trace.cls, s.Trace.t0, s.Trace.t1, s.Trace.kind))
    (Trace.of_log r.Driver.log).Trace.segs

let test_warm_runs_deterministic () =
  List.iter
    (fun strategy ->
      let config = config ~strategy ~procs:5 in
      let cache = Build_cache.create () in
      ignore (compile_cached ~config cache (sample_store ()));
      let w1 = compile_cached ~config ~capture:true cache (sample_store ()) in
      let w2 = compile_cached ~config ~capture:true cache (sample_store ()) in
      let tag = Symtab.dky_name strategy in
      Alcotest.(check (float 0.0)) (tag ^ ": same end time") w1.Driver.sim.Des.end_time
        w2.Driver.sim.Des.end_time;
      Alcotest.(check bool) (tag ^ ": identical schedule") true
        (normalize_trace w1 = normalize_trace w2))
    Symtab.all_concurrent

(* --- Project: incremental whole-program builds --- *)

let project_store ?(lib_body = "hits := 0") ?(main_body = "a := Lib.Bump(); WriteInt(a)") () =
  store ~name:"Main"
    ~defs:
      [
        ("Lib", "DEFINITION MODULE Lib;\nVAR hits: INTEGER;\nPROCEDURE Bump(): INTEGER;\nEND Lib.\n");
      ]
    ~impls:
      [
        ( "Lib",
          Printf.sprintf
            "IMPLEMENTATION MODULE Lib;\nPROCEDURE Bump(): INTEGER;\nBEGIN INC(hits); RETURN hits END Bump;\nBEGIN %s\nEND Lib.\n"
            lib_body );
      ]
    (Printf.sprintf
       "IMPLEMENTATION MODULE Main;\nIMPORT Lib;\nVAR a: INTEGER;\nBEGIN\n  %s\nEND Main.\n"
       main_body)

let test_project_incremental () =
  let cache = Project.cache () in
  let r1 = Project.compile ~cache (project_store ()) in
  Alcotest.(check (list string)) "first build compiles everything" [ "Lib"; "Main" ]
    r1.Project.recompiled;
  let r2 = Project.compile ~cache (project_store ()) in
  Alcotest.(check (list string)) "unchanged build reuses everything" [ "Lib"; "Main" ]
    r2.Project.reused;
  Alcotest.(check (list string)) "nothing recompiled" [] r2.Project.recompiled;
  Alcotest.(check bool) "identical program" true
    (String.equal (dis r1.Project.program) (dis r2.Project.program));
  Alcotest.(check bool) "reuse is cheaper" true (r2.Project.total_units < r1.Project.total_units);
  (* edit only the main implementation: Lib's result is reusable *)
  let edited = project_store ~main_body:"a := Lib.Bump(); WriteInt(a + 1)" () in
  let r3 = Project.compile ~cache edited in
  Alcotest.(check (list string)) "only Main recompiles" [ "Main" ] r3.Project.recompiled;
  Alcotest.(check (list string)) "Lib reused" [ "Lib" ] r3.Project.reused;
  Alcotest.(check bool) "edited result matches a cold build" true
    (String.equal
       (dis (Project.compile edited).Project.program)
       (dis r3.Project.program))

let test_project_def_edit_recompiles_dependents () =
  let cache = Project.cache () in
  let with_def def =
    let base = project_store () in
    store ~name:"Main"
      ~defs:[ ("Lib", def) ]
      ~impls:
        [
          ( "Lib",
            "IMPLEMENTATION MODULE Lib;\nPROCEDURE Bump(): INTEGER;\nBEGIN INC(hits); RETURN hits END Bump;\nBEGIN hits := 0\nEND Lib.\n"
          );
        ]
      (Source_store.main_src base)
  in
  let def1 = "DEFINITION MODULE Lib;\nVAR hits: INTEGER;\nPROCEDURE Bump(): INTEGER;\nEND Lib.\n" in
  let def2 =
    "DEFINITION MODULE Lib;\nVAR hits: INTEGER;\nVAR spare: INTEGER;\nPROCEDURE Bump(): INTEGER;\nEND Lib.\n"
  in
  ignore (Project.compile ~cache (with_def def1));
  let r = Project.compile ~cache (with_def def1) in
  Alcotest.(check (list string)) "unchanged def: all reused" [ "Lib"; "Main" ] r.Project.reused;
  (* an interface edit invalidates every module that depends on it *)
  let r' = Project.compile ~cache (with_def def2) in
  Alcotest.(check (list string)) "def edit recompiles Lib and Main" [ "Lib"; "Main" ]
    r'.Project.recompiled;
  Alcotest.(check (list string)) "nothing reused" [] r'.Project.reused

let test_project_config_keys_separate () =
  (* cached module results embed simulated timings: a different
     configuration must never be served another configuration's result *)
  let cache = Project.cache () in
  let c1 = config ~strategy:Symtab.Skeptical ~procs:8 in
  let c2 = config ~strategy:Symtab.Pessimistic ~procs:3 in
  let r1 = Project.compile ~config:c1 ~cache (project_store ()) in
  let r2 = Project.compile ~config:c2 ~cache (project_store ()) in
  Alcotest.(check (list string)) "other config recompiles" [ "Lib"; "Main" ]
    r2.Project.recompiled;
  Alcotest.(check bool) "programs still identical" true
    (String.equal (dis r1.Project.program) (dis r2.Project.program));
  let r3 = Project.compile ~config:c1 ~cache (project_store ()) in
  Alcotest.(check (list string)) "original config still cached" [ "Lib"; "Main" ]
    r3.Project.reused

let test_project_warm_output_runs () =
  let cache = Project.cache () in
  ignore (Project.compile ~cache (project_store ()));
  let warm = Project.compile ~cache (project_store ()) in
  let run = Mcc_vm.Vm.run warm.Project.program in
  Alcotest.(check string) "warm program runs correctly" "1" run.Mcc_vm.Vm.output;
  Alcotest.(check bool) "finished" true (run.Mcc_vm.Vm.status = Mcc_vm.Vm.Finished)

(* --- on-disk persistence --- *)

let with_cache_dir f =
  let dir = Filename.temp_file "mcc-cache" "" in
  Sys.remove dir (* Build_cache.save creates the directory *);
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_disk_round_trip () =
  with_cache_dir (fun dir ->
      let cold = Driver.compile (sample_store ()) in
      let c1 = Build_cache.create ~dir () in
      ignore (compile_cached c1 (sample_store ()));
      Build_cache.save c1;
      (* a fresh process would load the artifacts from disk *)
      let c2 = Build_cache.create ~dir () in
      Alcotest.(check int) "one artifact loaded" 1 (List.length (Build_cache.interfaces c2));
      let warm = compile_cached c2 (sample_store ()) in
      Alcotest.(check (list string)) "loaded artifact hits" [ "Lib" ] warm.Driver.cache_hits;
      Alcotest.(check bool) "identical program from disk artifacts" true
        (String.equal (dis cold.Driver.program) (dis warm.Driver.program));
      Alcotest.(check (list string)) "identical diagnostics"
        (diag_strings cold.Driver.diags) (diag_strings warm.Driver.diags))

(* A result stored over a key that was loaded from disk replaces the
   loaded entry's payload: the next save must write the new result, not
   the bytes it was loaded from. *)
let test_memo_store_over_loaded_key () =
  with_cache_dir (fun dir ->
      let bc = Build_cache.create ~dir () in
      let m1 = Build_cache.memo () in
      Build_cache.store_module m1 ~name:"M" ~key:"k" "old";
      Build_cache.save_memo bc m1;
      let m2 = Build_cache.memo () in
      Build_cache.load_memo bc m2;
      Alcotest.(check (option string)) "loaded" (Some "old") (Build_cache.find_module m2 "k");
      Build_cache.store_module m2 ~name:"M" ~key:"k" "new";
      Build_cache.save_memo bc m2;
      let m3 = Build_cache.memo () in
      Build_cache.load_memo bc m3;
      Alcotest.(check (option string)) "reloaded entry is the new one" (Some "new")
        (Build_cache.find_module m3 "k"))

(* Loading and saving again with nothing stored in between (a no-op
   `m2c build`) rewrites the memo file byte for byte. *)
let test_memo_resave_identical () =
  with_cache_dir (fun dir ->
      let c1 = Project.cache ~dir () in
      ignore (Project.compile ~cache:c1 (project_store ()));
      Project.save c1;
      let file = Filename.concat dir "modules.bin" in
      let first = Tutil.read_file file in
      let c2 = Project.cache ~dir () in
      let r = Project.compile ~cache:c2 (project_store ()) in
      Alcotest.(check (list string)) "no-op build recompiles nothing" [] r.Project.recompiled;
      Project.save c2;
      Alcotest.(check bool) "modules.bin byte-identical" true (String.equal first (Tutil.read_file file)))

(* --- crash-safe, verify-once saves --- *)

let cache_files = [ "interfaces.bin"; "modules.bin" ]

(* One `m2c build` step against [dir]. *)
let build_step ?main_body dir =
  let c = Project.cache ~dir () in
  let r = Project.compile ~cache:c (project_store ?main_body ()) in
  Project.save c;
  r

(* Saves replace a file by renaming a complete new one over it, and a
   store with nothing new is not rewritten at all. *)
let test_atomic_saves () =
  with_cache_dir (fun dir ->
      let inodes () = List.map (fun f -> (Unix.stat (Filename.concat dir f)).Unix.st_ino) cache_files in
      ignore (build_step dir);
      let before = inodes () in
      let r = build_step dir in
      Alcotest.(check (list string)) "no-op build recompiles nothing" [] r.Project.recompiled;
      Alcotest.(check (list int)) "clean saves leave both files in place" before (inodes ());
      let r = build_step ~main_body:"a := Lib.Bump() + 1; WriteInt(a)" dir in
      Alcotest.(check (list string)) "body-only edit recompiles Main" [ "Main" ] r.Project.recompiled;
      (match (before, inodes ()) with
      | [ i0; m0 ], [ i1; m1 ] ->
          Alcotest.(check int) "interfaces.bin unchanged: not rewritten" i0 i1;
          Alcotest.(check bool) "modules.bin rewritten: a new file renamed into place" true (m0 <> m1)
      | _ -> assert false);
      Alcotest.(check (list string)) "no temporary file left behind" cache_files
        (List.sort compare (Array.to_list (Sys.readdir dir))))

(* Two processes building over one cache directory at once: each save
   renames a complete file into place, so every load, in either process
   and after both, finds whole files. *)
let test_two_processes () =
  with_cache_dir (fun dir ->
      let builder op =
        match Unix.fork () with
        | 0 -> (
            try
              for i = 1 to 20 do
                let c = Project.cache ~dir () in
                if Build_cache.corrupt_count c.Project.bc <> 0 then Unix._exit 2;
                let main_body = Printf.sprintf "a := Lib.Bump() %s %d; WriteInt(a)" op i in
                ignore (Project.compile ~cache:c (project_store ~main_body ()));
                Project.save c
              done;
              Unix._exit 0
            with _ -> Unix._exit 1)
        | pid -> pid
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "a builder process failed")
        [ builder "+"; builder "-" ];
      let c = Project.cache ~dir () in
      Alcotest.(check int) "both files load cleanly" 0 (Build_cache.corrupt_count c.Project.bc);
      let r = Project.compile ~cache:c (project_store ()) in
      let cold = Project.compile (project_store ()) in
      Alcotest.(check string) "the next build equals a cold build" (dis cold.Project.program)
        (dis r.Project.program))

(* A stored artifact that was never probed is verified at save time: a
   tampered one is dropped and counted, and never reaches disk. *)
let test_save_drops_unverified () =
  with_cache_dir (fun dir ->
      let c = Build_cache.create ~dir () in
      ignore (compile_cached c (sample_store ()));
      let a = List.hd (Build_cache.interfaces c) in
      let entry = Option.get (Build_cache.latest c a.Artifact.a_name) in
      Build_cache.store_interface c ~fp:(Build_cache.stored_fingerprint entry)
        ~source:(Build_cache.stored_source entry)
        { a with Artifact.a_digest = String.make 32 '0' };
      let corrupt0 = Build_cache.corrupt_count c in
      Build_cache.save c;
      Alcotest.(check int) "the tampered artifact is counted" (corrupt0 + 1)
        (Build_cache.corrupt_count c);
      let c2 = Build_cache.create ~dir () in
      Alcotest.(check int) "the saved file is sound" 0 (Build_cache.corrupt_count c2);
      Alcotest.(check int) "the tampered artifact is absent" 0
        (List.length (Build_cache.interfaces c2)))

(* --- hostile cache files: rejected before unmarshaling, never fatal --- *)

let observation (r : Project.result) = (dis r.Project.program, diag_strings r.Project.diags)
let cold = lazy (observation (Project.compile (project_store ())))

(* [body] behind the checked header of the previous file format,
   mcc-cache-1, whose body was one Marshal blob. *)
let format1 file body =
  let len = Bytes.create 8 in
  Bytes.set_int64_le len 0 (Int64.of_int (String.length body));
  Printf.sprintf "mcc-cache-1 %s mcc-artifact-v3\n" file
  ^ Bytes.to_string len ^ Digest.string body ^ body

(* [fields] behind the checked header of an older field format:
   mcc-cache-2 stored three fields per artifact (fingerprint, name,
   marshaled bytes) where later formats store five; mcc-cache-3 laid
   out interfaces.bin as mcc-cache-4 did, a type-uid floor before the
   artifacts' fields, and modules.bin as key and payload per entry, then
   each module name with the position of its entry. *)
let seal tag_line fields =
  let b = Buffer.create 256 in
  List.iter
    (fun f ->
      let rec varint n =
        if n < 0x80 then Buffer.add_char b (Char.chr n)
        else begin
          Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
          varint (n lsr 7)
        end
      in
      varint (String.length f);
      Buffer.add_string b f)
    fields;
  let body = Buffer.contents b in
  let len = Bytes.create 8 in
  Bytes.set_int64_le len 0 (Int64.of_int (String.length body));
  tag_line ^ Bytes.to_string len ^ Digest.string body ^ body

let format_fields ?(tag = "mcc-cache-2") ?(version = "mcc-artifact-v3") file fields =
  seal (Printf.sprintf "%s %s %s\n" tag file version) fields

let format2 = format_fields ~tag:"mcc-cache-2" ~version:"mcc-artifact-v3"
let format3 = format_fields ~tag:"mcc-cache-3" ~version:"mcc-artifact-v4"
let format4 = format_fields ~tag:"mcc-cache-4" ~version:"mcc-artifact-v4"

(* The two files of a freshly saved cache, and older encodings of their
   contents: mcc-cache-4 to mcc-cache-1 files, and
   headerless ones (a bare Marshal blob, the format tag being the
   artifact version). *)
let pristine =
  lazy
    (with_cache_dir (fun dir ->
         let c = Project.cache ~dir () in
         ignore (Project.compile ~cache:c (project_store ()));
         Project.save c;
         let files = List.map (fun f -> (f, Tutil.read_file (Filename.concat dir f))) cache_files in
         let v = "mcc-artifact-v3" in
         let arts =
           List.map
             (fun (a : Artifact.t) ->
               ( Build_cache.stored_fingerprint
                   (Option.get (Build_cache.latest c.Project.bc a.Artifact.a_name)),
                 a ))
             (Build_cache.interfaces c.Project.bc)
         in
         let entries =
           List.filter_map
             (fun n ->
               Build_cache.find_latest_module c.Project.memo
                 ~name:(Project.config_tag Driver.default_config ^ "|" ^ n))
             [ "Lib"; "Main" ]
         in
         let payloads = List.map (fun (k, e) -> (k, Marshal.to_string e [])) entries in
         let floored fmt =
           fmt "interfaces.bin"
             ("0"
             :: List.concat_map
                  (fun (fp, (a : Artifact.t)) ->
                    let s = Option.get (Build_cache.latest c.Project.bc a.Artifact.a_name) in
                    [
                      fp;
                      a.Artifact.a_name;
                      Build_cache.stored_source s;
                      Build_cache.stored_identity s;
                      Marshal.to_string a [];
                    ])
                  arts)
         in
         let old =
           [
             ("interfaces.bin", "old headerless format", Marshal.to_string (v, arts) []);
             ( "modules.bin",
               "old headerless format",
               Marshal.to_string (v, payloads, [ ("Main", "k") ]) [] );
             ( "interfaces.bin",
               "format mcc-cache-1",
               format1 "interfaces.bin"
                 (Marshal.to_string
                    (List.map (fun (fp, a) -> (fp, Marshal.to_string a [])) arts)
                    []) );
             ( "modules.bin",
               "format mcc-cache-1",
               format1 "modules.bin" (Marshal.to_string (payloads, [ ("Main", "k") ]) []) );
             ( "interfaces.bin",
               "format mcc-cache-2",
               format2 "interfaces.bin"
                 ("0"
                 :: List.concat_map
                      (fun (fp, (a : Artifact.t)) -> [ fp; a.Artifact.a_name; Marshal.to_string a [] ])
                      arts) );
             ( "modules.bin",
               "format mcc-cache-2",
               format2 "modules.bin"
                 (string_of_int (List.length payloads)
                 :: List.concat_map (fun (k, p) -> [ k; p ]) payloads
                 @ List.concat (List.mapi (fun i (k, _) -> [ k; string_of_int i ]) payloads)) );
             ("interfaces.bin", "format mcc-cache-3", floored format3);
             ("interfaces.bin", "format mcc-cache-4", floored format4);
             ( "modules.bin",
               "format mcc-cache-3",
               format3 "modules.bin"
                 (string_of_int (List.length payloads)
                 :: List.concat_map (fun (k, p) -> [ k; p ]) payloads
                 @ List.concat (List.mapi (fun i (k, _) -> [ k; string_of_int i ]) payloads)) );
           ]
         in
         (files, old)))

(* A cache directory holding the pristine files with [file] replaced by
   [bytes]: loading it must not raise and must count one rejection, the
   next build must equal a cold build, and its save must heal the
   directory. *)
let load_damaged ~what file bytes =
  with_cache_dir (fun dir ->
      Sys.mkdir dir 0o755;
      List.iter
        (fun (f, s) ->
          Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
              output_string oc (if f = file then bytes else s)))
        (fst (Lazy.force pristine));
      let c = Project.cache ~dir () in
      let rejected = Build_cache.corrupt_count c.Project.bc = 1 in
      let r = Project.compile ~cache:c (project_store ()) in
      Project.save c;
      let healed = Project.cache ~dir () in
      let again = Project.compile ~cache:healed (project_store ()) in
      if not rejected then Alcotest.failf "%s: %s not rejected" what file;
      observation r = Lazy.force cold
      && Build_cache.corrupt_count healed.Project.bc = 0
      && again.Project.recompiled = [])

let test_hostile_files () =
  let rng = Random.State.make [| 15 |] in
  let files, old = Lazy.force pristine in
  List.iter
    (fun (file, good) ->
      let n = String.length good in
      let flip pos =
        String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor 0x5a) else c) good
      in
      let cases =
        List.map
          (fun k -> (Printf.sprintf "truncated at %d" k, String.sub good 0 k))
          (List.sort_uniq compare [ 0; 1; 12; 30; 40; n / 2; n - 1 ])
        @ [
            (let pos = Random.State.int rng n in
             (Printf.sprintf "byte %d flipped" pos, flip pos));
            ("garbage", String.init 4096 (fun _ -> Char.chr (Random.State.int rng 256)));
          ]
        @ List.filter_map
            (fun (f, what, bytes) -> if f = file then Some (what, bytes) else None)
            old
      in
      List.iter
        (fun (what, bytes) ->
          Alcotest.(check bool) (file ^ " " ^ what ^ ": cold output, healed") true
            (load_damaged ~what file bytes))
        cases)
    files

(* A modules.bin whose header checks out but one of whose marshaled
   result fields is empty, cut short or only a header: Marshal alone
   would read on into the following fields.  Each such entry loads as
   a miss: the build equals a cold build and recompiles that module. *)
let test_hostile_memo_fields () =
  let good = List.assoc "modules.bin" (fst (Lazy.force pristine)) in
  let tag_line = String.sub good 0 (String.index good '\n' + 1) in
  let fields =
    let rec go pos acc =
      if pos >= String.length good then List.rev acc
      else
        let rec varint pos shift n =
          let c = Char.code good.[pos] in
          let n = n lor ((c land 0x7f) lsl shift) in
          if c < 0x80 then (pos + 1, n) else varint (pos + 1) (shift + 7) n
        in
        let pos, n = varint pos 0 0 in
        go (pos + n) (String.sub good pos n :: acc)
    in
    go (String.length tag_line + 8 + 16) []
  in
  Alcotest.(check int) "count, then four fields per entry" 1 (List.length fields mod 4);
  List.iteri
    (fun i name ->
      if i mod 4 = 2 then
        let payload = List.nth fields (i + 1) in
        let short = String.sub payload 0 (String.length payload / 2) in
        let header = String.sub payload 0 Marshal.header_size in
        List.iter
          (fun (what, bytes) ->
            let file =
              seal tag_line (List.mapi (fun j f -> if j = i + 1 then bytes else f) fields)
            in
            with_cache_dir (fun dir ->
                Sys.mkdir dir 0o755;
                List.iter
                  (fun (f, s) ->
                    Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
                        output_string oc (if f = "modules.bin" then file else s)))
                  (fst (Lazy.force pristine));
                let c = Project.cache ~dir () in
                let r = Project.compile ~cache:c (project_store ()) in
                let m = List.hd (List.rev (String.split_on_char '|' name)) in
                Alcotest.(check bool) (name ^ " " ^ what ^ ": cold output") true
                  (observation r = Lazy.force cold);
                Alcotest.(check bool) (name ^ " " ^ what ^ ": a miss") true
                  (List.mem m r.Project.recompiled)))
          [ ("empty result", ""); ("result cut short", short); ("result header only", header) ])
    fields

let prop_byte_flips =
  QCheck.Test.make ~name:"any single byte flip is rejected and healed" ~count:40
    QCheck.(triple bool (int_bound 1_000_000) (int_range 1 255))
    (fun (memo_file, pos, mask) ->
      let file, good = List.nth (fst (Lazy.force pristine)) (if memo_file then 1 else 0) in
      let pos = pos mod String.length good in
      let bytes =
        String.mapi (fun i c -> if i = pos then Char.chr (Char.code c lxor mask) else c) good
      in
      load_damaged ~what:(Printf.sprintf "byte %d ^ %d" pos mask) file bytes)

(* --- a save killed partway through --- *)

(* Read [n] bytes from [fd]; false at an early end of file. *)
let really_read fd n =
  let b = Bytes.create n in
  let rec go k = k >= n || match Unix.read fd b k (n - k) with 0 -> false | r -> go (k + r) in
  go 0

(* A child process builds and saves a 300-interface cache in a loop,
   switching between two versions of one interface so that each save
   rewrites both files, and announces each save on a pipe.  At a seeded
   save, the second to the fourth (the first may find the files
   current), the parent waits a seeded delay of up to 1 ms, about as
   long as writing both files takes, and kills the child with SIGKILL.
   Whatever the kill interrupted, the directory loads cleanly: a file
   is only ever replaced by renaming a complete one over it.  Temporary
   files a kill leaves behind stay in the directory for the later
   loads, which must ignore them. *)
let test_killed_saves () =
  let base = Mcc_zoo.Scale.flat_store 300 in
  let version k =
    let def n =
      if n = "Sc00000" then
        Printf.sprintf "DEFINITION MODULE %s;\nCONST c00000 = %d;\nEND %s.\n" n k n
      else Option.get (Source_store.def_src base n)
    in
    Source_store.make ~main_name:(Source_store.main_name base)
      ~main_src:(Source_store.main_src base)
      ~defs:(List.map (fun n -> (n, def n)) (Source_store.def_names base))
      ()
  in
  let cold = dis (Project.compile (version 0)).Project.program in
  let rng = Random.State.make [| 19 |] in
  with_cache_dir (fun dir ->
      for kill = 1 to 8 do
        let saves = 2 + Random.State.int rng 3 and delay = Random.State.float rng 0.001 in
        let saving_r, saving_w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
            Unix.close saving_r;
            (try
               for k = 1 to 1000 do
                 let c = Project.cache ~dir () in
                 ignore (Project.compile ~cache:c (version (k mod 2)));
                 ignore (Unix.write_substring saving_w "s" 0 1);
                 Project.save c
               done
             with _ -> ());
            Unix._exit 0
        | pid ->
            Unix.close saving_w;
            let announced = really_read saving_r saves in
            Unix.sleepf delay;
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Unix.close saving_r;
            if not announced then Alcotest.fail "the saving process stopped before its saves";
            let what = Printf.sprintf "kill %d, %.2f ms into save %d" kill (delay *. 1e3) saves in
            let c = Project.cache ~dir () in
            Alcotest.(check int) (what ^ ": the directory loads cleanly") 0
              (Build_cache.corrupt_count c.Project.bc);
            let r = Project.compile ~cache:c (version 0) in
            Alcotest.(check string) (what ^ ": the next build equals a cold build") cold
              (dis r.Project.program)
      done)

(* --- the charge-free import scan agrees with the real importer --- *)

let importer_scan src =
  let seen = Hashtbl.create 8 and real = ref [] in
  Mcc_core.Stream.run_importer
    ~rd:(Mcc_m2.Reader.of_lexer (Mcc_m2.Lexer.create ~file:"x" src))
    ~on_import:(fun m ->
      if not (Hashtbl.mem seen m) then begin
        Hashtbl.replace seen m ();
        real := m :: !real
      end);
  List.rev !real

let test_imports_first_occurrence () =
  let src =
    "IMPLEMENTATION MODULE T;\nIMPORT A, B, A; FROM B IMPORT x; IMPORT C;\nBEGIN\nEND T.\n"
  in
  let g =
    Build_cache.graph (Build_cache.create ())
      (Source_store.make ~main_name:"T" ~main_src:src ~defs:[] ())
  in
  Alcotest.(check (option (list string))) "the build's table" (Some [ "A"; "B"; "C" ])
    (Build_cache.impl_imports g "T");
  Alcotest.(check (list string)) "importer agrees" [ "A"; "B"; "C" ] (importer_scan src)

(* every module source under corpus/, edit variants included; expect/
   holds goldens *)
let test_scan_matches_importer_corpus () =
  let rec sources dir =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let path = Filename.concat dir f in
           if Sys.is_directory path then if f = "expect" then [] else sources path
           else if Tutil.contains ~sub:".mod" f || Tutil.contains ~sub:".def" f then [ path ]
           else [])
  in
  let files = sources (Lazy.force Tutil.corpus_dir) in
  Alcotest.(check bool) "corpus has sources" true (List.length files > 20);
  List.iter
    (fun path ->
      let src = Tutil.read_file path in
      Alcotest.(check (list string)) path (importer_scan src) (Build_cache.scan_imports src))
    files

let prop_scan_matches_importer =
  QCheck.Test.make ~name:"fingerprint import scan == importer task scan" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let shape =
        {
          Mcc_synth.Gen.seed;
          name = "S";
          n_defs = 4;
          depth = 2;
          n_procs = 3;
          nested_per_proc = 0;
          stmts_lo = 2;
          stmts_hi = 6;
          module_vars = 2;
          def_size = 1;
          pad = 0;
          runnable = false;
        }
      in
      let st = Mcc_synth.Gen.generate shape in
      let g = Build_cache.graph (Build_cache.create ()) st in
      let main = Source_store.main_name st in
      let sources =
        (Source_store.main_src st, Build_cache.impl_imports g main)
        :: List.map
             (fun n -> (Option.get (Source_store.def_src st n), Some (Build_cache.def_imports g n)))
             (Source_store.def_names st)
      in
      List.for_all
        (fun (src, table) ->
          let real = importer_scan src in
          real = Build_cache.scan_imports src && table = Some real)
        sources)

(* Build_cache.condense against a reference: over random import graphs
   (self-imports and shared imports included), every node reachable from
   the roots is emitted once, with its data, in the component of the
   nodes it reaches and is reached from, members sorted, and after the
   components of everything it imports.  Both ways callers mark nodes
   settled are covered: by emission, and never. *)
let prop_condense_matches_reachability =
  QCheck.Test.make ~name:"condense: components and order match reachability" ~count:200
    QCheck.(pair (int_bound 10_000) bool)
    (fun (seed, mark) ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 8 in
      let name i = Printf.sprintf "n%d" i in
      let edges =
        Array.init n (fun _ -> List.filter (fun _ -> Random.State.int rng 4 = 0) (List.init n name))
      in
      let succ v = edges.(int_of_string (String.sub v 1 (String.length v - 1))) in
      let roots = List.filter (fun _ -> Random.State.bool rng) (List.init n name) in
      (* reference reachability: [reach u v] when v is reachable from u *)
      let rec reaches seen u = if List.mem u seen then seen else List.fold_left reaches (u :: seen) (succ u) in
      let reach u v = List.mem v (reaches [] u) in
      let emitted = ref [] in
      let settled v = mark && List.exists (List.exists (fun (m, _) -> m = v)) !emitted in
      Build_cache.condense ~node:(fun v -> (v, succ v)) ~edges:snd ~settled
        (fun ms -> emitted := !emitted @ [ ms ]) roots;
      let comps = !emitted in
      let members = List.concat_map (List.map fst) comps in
      let reachable = List.sort_uniq compare (List.concat_map (reaches []) roots) in
      let position v = Option.get (List.find_index (List.exists (fun (m, _) -> m = v)) comps) in
      List.sort compare members = reachable
      && List.for_all (fun ms -> List.for_all (fun (m, (d, _)) -> m = d) ms) comps
      && List.for_all
           (fun ms ->
             let vs = List.map fst ms in
             List.sort compare vs = vs
             && List.for_all (fun u -> List.for_all (fun v -> reach u v && reach v u) vs) vs)
           comps
      && List.for_all
           (fun u ->
             List.for_all
               (fun v ->
                 position u = position v
                 || (position v < position u && not (reach v u)))
               (succ u))
           members)

let () =
  Alcotest.run "cache"
    [
      ( "equivalence",
        [
          Alcotest.test_case "warm == cold, all configurations" `Quick test_warm_equals_cold;
          Alcotest.test_case "warm is cheaper" `Quick test_warm_is_cheaper;
          Tutil.qtest prop_warm_equals_cold;
          Alcotest.test_case "erroneous interface replays diagnostics" `Quick
            test_erroneous_interface_replays_diags;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "edit invalidates exactly dependents" `Quick
            test_edit_invalidates_exactly_dependents;
          Alcotest.test_case "a graph of another store is refused" `Quick test_foreign_graph_refused;
          Alcotest.test_case "a graph over another cache" `Quick test_graph_over_other_cache;
        ] );
      ( "determinism",
        [ Alcotest.test_case "warm runs: identical traces" `Quick test_warm_runs_deterministic ] );
      ( "project",
        [
          Alcotest.test_case "incremental reuse" `Quick test_project_incremental;
          Alcotest.test_case "def edit recompiles dependents" `Quick
            test_project_def_edit_recompiles_dependents;
          Alcotest.test_case "config-keyed module results" `Quick test_project_config_keys_separate;
          Alcotest.test_case "warm program runs" `Quick test_project_warm_output_runs;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "disk round trip" `Quick test_disk_round_trip;
          Alcotest.test_case "memo store over a loaded key" `Quick test_memo_store_over_loaded_key;
          Alcotest.test_case "memo resave byte-identical" `Quick test_memo_resave_identical;
          Alcotest.test_case "atomic saves, clean saves skipped" `Quick test_atomic_saves;
          Alcotest.test_case "two processes, one cache directory" `Quick test_two_processes;
          Alcotest.test_case "save drops unverified artifacts" `Quick test_save_drops_unverified;
          Alcotest.test_case "hostile files rejected" `Quick test_hostile_files;
          Alcotest.test_case "memo fields that overrun" `Quick test_hostile_memo_fields;
          Tutil.qtest prop_byte_flips;
          Alcotest.test_case "saves killed partway through" `Quick test_killed_saves;
        ] );
      ("condense", [ Tutil.qtest prop_condense_matches_reachability ]);
      ( "scanner",
        [
          Tutil.qtest prop_scan_matches_importer;
          Alcotest.test_case "first occurrence, no repeats" `Quick test_imports_first_occurrence;
          Alcotest.test_case "corpus sources match the importer" `Quick
            test_scan_matches_importer_corpus;
        ] );
    ]
