(* The manifest-driven zoo runner.  Ported from the ad-hoc walk that
   used to live in test/test_corpus.ml, with three changes: which
   oracles run is declared per scenario (Manifest), expected behaviour
   is pinned in durable golden records (Golden) instead of only
   relational properties, and every divergence is a structured failure
   carrying the oracle, field and both sides. *)

open Mcc_core
module Obs = Mcc_check.Observation
module Oracle = Mcc_check.Oracle

type failure = {
  f_scenario : string;
  f_oracle : string;
  f_field : string;
  f_expected : string;
  f_actual : string;
}

let truncate s =
  let s = String.map (function '\n' -> ' ' | c -> c) s in
  if String.length s > 160 then String.sub s 0 157 ^ "..." else s

let failure_to_string f =
  Printf.sprintf "%s: %s: %s: expected %s, got %s" f.f_scenario f.f_oracle f.f_field
    (truncate f.f_expected) (truncate f.f_actual)

type outcome = {
  o_scenario : string;
  o_kind : string;
  o_oracles : string list;
  o_failures : failure list;
  o_updated : string list;
}

let vm_fuel = 2_000_000

(* --- directory plumbing ------------------------------------------- *)

let read_file path = Option.get (Golden.read_file path)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> not (Sys.is_directory (Filename.concat dir f)))

(* The main module of a scenario: the one .mod no other file imports. *)
let main_of_dir dir =
  let files = source_files dir in
  let mods =
    List.filter_map
      (fun f -> if Filename.check_suffix f ".mod" then Some (Filename.chop_suffix f ".mod") else None)
      files
  in
  let imported =
    List.concat_map
      (fun f ->
        if Filename.check_suffix f ".mod" || Filename.check_suffix f ".def" then
          Build_cache.scan_imports (read_file (Filename.concat dir f))
        else [])
      files
  in
  match List.filter (fun m -> not (List.mem m imported)) mods with
  | [ m ] -> Ok m
  | [] -> Error "no un-imported .mod — cannot auto-detect a main module"
  | ms -> Error (Printf.sprintf "ambiguous main module (%s) — set main: in the manifest" (String.concat ", " ms))

(* Overlay one interface's source in memory. *)
let with_def store name src =
  let defs =
    List.map
      (fun d -> (d, if d = name then src else Option.get (Source_store.def_src store d)))
      (Source_store.def_names store)
  in
  let impls =
    List.map (fun i -> (i, Option.get (Source_store.impl_src store i))) (Source_store.impl_names store)
  in
  Source_store.make ~impls
    ~main_name:(Source_store.main_name store)
    ~main_src:(Source_store.main_src store)
    ~defs ()

(* Prepared interface-edit variant files: <Def>.def.<variant>. *)
let variants_of dir =
  List.filter_map
    (fun f ->
      if Filename.check_suffix f ".def" then None
      else
        let marker = ".def." in
        let rec find i =
          if i + String.length marker > String.length f then None
          else if String.sub f i (String.length marker) = marker then Some i
          else find (i + 1)
        in
        Option.map
          (fun i ->
            ( f,
              String.sub f 0 i,
              String.sub f (i + String.length marker) (String.length f - i - String.length marker) ))
          (find 0))
    (source_files dir)

let scenario_dirs ~dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Sys.is_directory (Filename.concat dir f))

(* --- the oracles --------------------------------------------------- *)

let conformance ~scenario ~oracle store =
  let run = Source_store.impl_names store = [] in
  let reference = Obs.of_seq ~run (Seq_driver.compile store) in
  List.concat_map
    (fun procs ->
      let config = { Driver.default_config with Driver.procs = procs } in
      let obs = Obs.of_driver ~run (Driver.compile ~config store) in
      match Obs.first_diff ~reference obs with
      | None -> []
      | Some (field, want, got) ->
          [
            {
              f_scenario = scenario;
              f_oracle = Printf.sprintf "%s/p%d" oracle procs;
              f_field = field;
              f_expected = want;
              f_actual = got;
            };
          ])
    [ 1; 8 ]

let project_diff a b =
  let sig_of (p : Project.result) =
    Printf.sprintf "%s\n%s"
      (String.concat "\n" (List.map Mcc_m2.Diag.to_string p.Project.diags))
      (Mcc_codegen.Cunit.disassemble p.Project.program)
  in
  Golden.first_line_diff ~expected:(sig_of a) ~actual:(sig_of b)

let fail ~scenario ~oracle ~field ~expected ~actual =
  { f_scenario = scenario; f_oracle = oracle; f_field = field; f_expected = expected; f_actual = actual }

(* Write a golden record unless the file already holds exactly it;
   whether it wrote. *)
let write_golden path rendered =
  let changed = Golden.read_file path <> Some rendered in
  if changed then Golden.write_file path rendered;
  changed

(* Warm project rebuild ≡ cold, and a no-op rebuild recompiles nothing.
   Returns the warmed cache for the incremental oracle to reuse. *)
let warm_cold ~scenario store =
  let cache = Project.cache () in
  let cold = Project.compile ~cache store in
  let warm = Project.compile ~cache store in
  let fs =
    match project_diff cold warm with
    | Some (n, want, got) ->
        [
          fail ~scenario ~oracle:"warm-cold" ~field:(Printf.sprintf "line %d" n) ~expected:want
            ~actual:got;
        ]
    | None -> []
  in
  let fs =
    if warm.Project.recompiled <> [] then
      fail ~scenario ~oracle:"warm-cold" ~field:"no-op rebuild recompiles" ~expected:"(nothing)"
        ~actual:(String.concat " " warm.Project.recompiled)
      :: fs
    else fs
  in
  (cache, cold, fs)

let rebuild_record (p : Project.result) =
  {
    Golden.g_recompiled = p.Project.recompiled;
    g_reused = p.Project.reused;
    g_cutoffs = p.Project.cutoffs;
  }

(* One prepared interface edit: overlay in memory, rebuild against the
   warm cache, and require (a) the incremental result equals a cold
   build of the edited program, (b) the edited program still conforms,
   (c) a comment-only edit recompiles nothing, and (d) when the golden
   oracle is on, the rebuild set matches its expect/ record. *)
let incremental ~scenario ~dir ~cache ~golden ~update store =
  let updated = ref [] in
  let fs =
    List.concat_map
      (fun (vfile, target, variant) ->
        let oracle = Printf.sprintf "incremental(%s.%s)" target variant in
        if not (Source_store.has_def store target) then
          [
            fail ~scenario ~oracle ~field:"variant target" ~expected:"a known interface"
              ~actual:target;
          ]
        else
          let edited = with_def store target (read_file (Filename.concat dir vfile)) in
          let rebuilt = Project.compile ~cache edited in
          let fresh = Project.compile edited in
          let fs =
            match project_diff fresh rebuilt with
            | Some (n, want, got) ->
                [
                  fail ~scenario ~oracle ~field:(Printf.sprintf "rebuild vs cold, line %d" n)
                    ~expected:want ~actual:got;
                ]
            | None -> []
          in
          let fs = fs @ conformance ~scenario ~oracle edited in
          let fs =
            if
              (let lv = String.lowercase_ascii variant in
               let rec has i =
                 i + 7 <= String.length lv && (String.sub lv i 7 = "comment" || has (i + 1))
               in
               has 0)
              && rebuilt.Project.recompiled <> []
            then
              fs
              @ [
                  fail ~scenario ~oracle ~field:"text-only edit recompiles" ~expected:"(nothing)"
                    ~actual:(String.concat " " rebuilt.Project.recompiled);
                ]
            else fs
          in
          if not golden then fs
          else
            let path = Golden.rebuild_path dir ~variant_file:vfile in
            let rendered = Golden.render_rebuild (rebuild_record rebuilt) in
            if update then (
              if write_golden path rendered then updated := path :: !updated;
              fs)
            else
              match Golden.read_file path with
              | None ->
                  fs
                  @ [
                      fail ~scenario ~oracle ~field:(Filename.basename path)
                        ~expected:"a golden rebuild record (run m2c zoo --update-golden)"
                        ~actual:"<missing>";
                    ]
              | Some expected -> (
                  match Golden.first_line_diff ~expected ~actual:rendered with
                  | None -> fs
                  | Some (n, want, got) ->
                      fs
                      @ [
                          fail ~scenario
                            ~oracle:(oracle ^ "/golden")
                            ~field:(Printf.sprintf "%s line %d" (Filename.basename path) n)
                            ~expected:want ~actual:got;
                        ]))
      (variants_of dir)
  in
  (fs, List.rev !updated)

let program_record ~input (p : Project.result) =
  let vm_status, vm_out =
    if p.Project.ok then
      let r = Mcc_vm.Vm.run ~fuel:vm_fuel ~input p.Project.program in
      (Mcc_vm.Vm.status_to_string r.Mcc_vm.Vm.status, r.Mcc_vm.Vm.output)
    else ("-", "")
  in
  {
    Golden.g_ok = p.Project.ok;
    g_modules = p.Project.modules;
    g_diags = List.sort compare (List.map Mcc_m2.Diag.to_string p.Project.diags);
    g_vm_status = vm_status;
    g_stdout = vm_out;
  }

let golden_program ~scenario ~dir ~input ~update (cold : Project.result) =
  let path = Golden.program_path dir in
  let rendered = Golden.render_program (program_record ~input cold) in
  if update then ([], if write_golden path rendered then [ path ] else [])
  else
    match Golden.read_file path with
    | None ->
        ( [
            fail ~scenario ~oracle:"golden" ~field:"expect/program.txt"
              ~expected:"a golden program record (run m2c zoo --update-golden)" ~actual:"<missing>";
          ],
          [] )
    | Some expected -> (
        match Golden.first_line_diff ~expected ~actual:rendered with
        | None -> ([], [])
        | Some (n, want, got) ->
            ( [
                fail ~scenario ~oracle:"golden" ~field:(Printf.sprintf "program.txt line %d" n)
                  ~expected:want ~actual:got;
              ],
              [] ))

let farm_oracle ~scenario store =
  let report = Mcc_farm.Farm.run Mcc_farm.Farm.default_config store in
  match Mcc_farm.Farm.verify store report with
  | Ok () -> []
  | Error msg ->
      [ fail ~scenario ~oracle:"farm" ~field:"verify" ~expected:"oracle-identical program" ~actual:msg ]

(* --- corpus scenarios ---------------------------------------------- *)

let run_dir ?(update_golden = false) dir =
  let scenario = Filename.basename dir in
  let finish ?(oracles = []) ?(updated = []) failures =
    { o_scenario = scenario; o_kind = "corpus"; o_oracles = oracles; o_failures = failures; o_updated = updated }
  in
  match Manifest.load ~dir with
  | Error msg ->
      finish [ fail ~scenario ~oracle:"manifest" ~field:"load" ~expected:"a valid manifest" ~actual:msg ]
  | Ok m -> (
      let main =
        match m.Manifest.main with Some main -> Ok main | None -> main_of_dir dir
      in
      match main with
      | Error msg ->
          finish
            [ fail ~scenario ~oracle:"manifest" ~field:"main module" ~expected:"detectable" ~actual:msg ]
      | Ok main_name ->
          let store = M2lib.augment (Source_store.of_directory ~dir ~main_name) in
          let oracles = List.map Manifest.oracle_to_string m.Manifest.oracles in
          let has o = List.mem o m.Manifest.oracles in
          let failures = ref [] and updated = ref [] in
          let add fs = failures := !failures @ fs in
          if has Manifest.Conformance then add (conformance ~scenario ~oracle:"conformance" store);
          (* warm-cold also primes the cache the incremental oracle
             rebuilds against; run it whenever either needs it *)
          let cache, cold =
            if has Manifest.Warm_cold || has Manifest.Incremental || has Manifest.Golden then (
              let cache, cold, fs = warm_cold ~scenario store in
              if has Manifest.Warm_cold then add fs;
              (Some cache, Some cold))
            else (None, None)
          in
          if has Manifest.Incremental then (
            let fs, up =
              incremental ~scenario ~dir ~cache:(Option.get cache) ~golden:(has Manifest.Golden)
                ~update:update_golden store
            in
            add fs;
            updated := !updated @ up);
          if has Manifest.Golden then (
            let fs, up =
              golden_program ~scenario ~dir ~input:m.Manifest.input ~update:update_golden
                (Option.get cold)
            in
            add fs;
            updated := !updated @ up);
          if has Manifest.Farm then add (farm_oracle ~scenario store);
          finish ~oracles ~updated:!updated !failures)

(* --- loose shrunk reproducers -------------------------------------- *)

(* repro<item>[x<ordinal>]-<Module>.{def,mod} at the corpus root,
   grouped by the prefix before the first '-'; each group replays as
   one store through the conformance oracle. *)
let run_repros ~dir =
  let files = source_files dir in
  let repros = List.filter (fun f -> starts_with ~prefix:"repro" f) files in
  let groups = Hashtbl.create 4 in
  List.iter
    (fun f ->
      match String.index_opt f '-' with
      | None -> ()
      | Some i ->
          let item = String.sub f 0 i in
          Hashtbl.replace groups item (f :: Option.value ~default:[] (Hashtbl.find_opt groups item)))
    repros;
  Hashtbl.fold (fun item fs acc -> (item, List.sort compare fs) :: acc) groups []
  |> List.sort compare
  |> List.filter_map (fun (item, fs) ->
         let module_of f ext =
           let base = Filename.chop_suffix f ext in
           String.sub base (String.length item + 1) (String.length base - String.length item - 1)
         in
         let mods = List.filter (fun f -> Filename.check_suffix f ".mod") fs in
         let defs =
           List.filter_map
             (fun f ->
               if Filename.check_suffix f ".def" then
                 Some (module_of f ".def", read_file (Filename.concat dir f))
               else None)
             fs
         in
         match mods with
         | [] -> None (* a stray .def with no driver program; nothing to replay *)
         | main :: rest ->
             let impls =
               List.map (fun f -> (module_of f ".mod", read_file (Filename.concat dir f))) rest
             in
             let store =
               M2lib.augment
                 (Source_store.make ~impls ~main_name:(module_of main ".mod")
                    ~main_src:(read_file (Filename.concat dir main))
                    ~defs ())
             in
             Some
               {
                 o_scenario = item;
                 o_kind = "repro";
                 o_oracles = [ "conformance" ];
                 o_failures = conformance ~scenario:item ~oracle:"conformance" store;
                 o_updated = [];
               })

(* --- generated adversarial shapes ---------------------------------- *)

(* Cyclic interface imports (mutually-recursive definition modules)
   deadlock under the Avoidance strategy by construction: Avoidance
   gates every importer on whole-interface completion before any
   reference, and a cycle can never complete first.  The driver detects
   and reports the deadlock — graceful, but not seq-conformant — so the
   zoo matrix drops Avoidance cells for cyclic stores, exactly as the
   paper's §2.2 assumes an acyclic import DAG for that strategy. *)
let has_def_cycle store =
  let imports d = Option.fold ~none:[] ~some:Build_cache.scan_imports (Source_store.def_src store d) in
  let cyclic = ref false in
  Build_cache.condense ~node:imports ~edges:Fun.id ~settled:(fun _ -> false)
    (function [ (d, is) ] -> if List.mem d is then cyclic := true | _ -> cyclic := true)
    (Source_store.def_names store);
  !cyclic

let run_spec ?(seed = 0) spec =
  let scenario = Shapes.name spec in
  let store = Shapes.generate ~seed spec in
  let run = Source_store.impl_names store = [] in
  let cyclic = has_def_cycle store in
  let matrix =
    if cyclic then
      List.filter
        (fun (c : Oracle.cell) -> c.Oracle.strategy <> Mcc_sem.Symtab.Avoidance)
        Oracle.default_matrix
    else Oracle.default_matrix
  in
  let warm_cell =
    let c = List.hd matrix in
    { c with Oracle.procs = 8; cache = Oracle.Warm }
  in
  let divs = Oracle.check ~run store (matrix @ [ warm_cell ]) in
  let failures =
    List.map
      (fun (d : Oracle.divergence) ->
        {
          f_scenario = scenario;
          f_oracle = "conformance/" ^ Oracle.cell_to_string d.Oracle.d_cell;
          f_field = d.Oracle.d_field;
          f_expected = d.Oracle.d_expected;
          f_actual = d.Oracle.d_actual;
        })
      divs
  in
  let _, cold, wc_failures = warm_cold ~scenario store in
  let vm_failures =
    if not cold.Project.ok then
      [
        fail ~scenario ~oracle:"vm" ~field:"project ok" ~expected:"true"
          ~actual:
            (String.concat "; " (List.map Mcc_m2.Diag.to_string cold.Project.diags));
      ]
    else
      let r = Mcc_vm.Vm.run ~fuel:vm_fuel cold.Project.program in
      match r.Mcc_vm.Vm.status with
      | Mcc_vm.Vm.Finished -> []
      | st ->
          [
            fail ~scenario ~oracle:"vm" ~field:"status" ~expected:"finished"
              ~actual:(Mcc_vm.Vm.status_to_string st);
          ]
  in
  {
    o_scenario = scenario;
    o_kind = "shape";
    o_oracles =
      [ (if cyclic then "conformance(-avoidance: cyclic imports)" else "conformance"); "warm-cold"; "vm" ];
    o_failures = failures @ wc_failures @ vm_failures;
    o_updated = [];
  }
