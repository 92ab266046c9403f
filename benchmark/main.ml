(* Wall-clock benchmark of the compiler, end to end and layer by layer.

     main.exe [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
         every workload, each in its own child process, one after
         another; writes the results of all of them to FILE (default
         _build/benchmark/results-seed<N>[-trace].json)
     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
         one workload in this process; the last line of standard output
         is the JSON result, and FILE gets the samples behind it
     main.exe --smoke
         every workload at smoke size, timed and traced, checking each
         result line against BENCHMARK.json (the runtest rule)
     main.exe compare BASE.json NEW.json
         medians, quartiles and a verdict per (workload, metric)

   Run it from the root of a checkout, where BENCHMARK.json and
   benchmark/kernels are read.  Workloads and metrics are described in
   benchmark/README.md. *)

module J = Mcc_obs.Json

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
    \                [--out FILE]\n\
    \       main.exe compare BASE.json NEW.json";
  exit 2

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  mutable positional : string list;
}

let parse_args argv =
  let a =
    {
      workload = None;
      seed = 1;
      seconds = 25.0;
      trace = false;
      smoke = false;
      out = None;
      positional = [];
    }
  in
  let rec go = function
    | "--workload" :: v :: rest -> a.workload <- Some v; go rest
    | "--seed" :: v :: rest -> a.seed <- int_of_string v; go rest
    | "--seconds" :: v :: rest -> a.seconds <- float_of_string v; go rest
    | "--trace" :: v :: rest ->
        a.trace <- (match v with "0" -> false | "1" -> true | _ -> usage ());
        go rest
    | "--smoke" :: rest -> a.smoke <- true; go rest
    | "--out" :: v :: rest -> a.out <- Some v; go rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' ->
        a.positional <- a.positional @ [ v ];
        go rest
    | [] -> a
    | _ -> usage ()
  in
  try go (List.tl (Array.to_list argv)) with Failure _ -> usage ()

let workload name =
  match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = name) Workloads.all with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s (one of: %s)\n" name
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all));
      exit 2

let config a =
  {
    Run.seed = a.seed;
    seconds = a.seconds;
    trace = a.trace;
    smoke = a.smoke;
    out = a.out;
  }

(* ------------------------------------------------------------------ *)
(* Checking a result line against BENCHMARK.json *)

let last_line text =
  String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") |> List.rev
  |> function
  | l :: _ -> l
  | [] -> ""

(* Problems with one workload's result line, [] when it meets the
   contract: the four keys, no failed check, and exactly the metrics
   BENCHMARK.json lists for this mode, with their units. *)
let line_problems ~bench ~trace line =
  match J.validate line with
  | Error e -> [ "result line is not JSON: " ^ e ]
  | Ok () -> (
      let v = Jsonp.parse line in
      let keys = match v with J.Obj fields -> List.map fst fields | _ -> [] in
      let expect_keys = [ "correct"; "attempted"; "failed"; "metrics" ] in
      let int k = match Jsonp.member k v with Some (J.Int i) -> Some i | _ -> None in
      let listed =
        Jsonp.field (if trace then "per_layer" else "end_to_end") bench |> Jsonp.to_list
      in
      let metrics = Jsonp.field "metrics" v in
      let names = match metrics with J.Obj fields -> List.map fst fields | _ -> [] in
      (if List.sort compare keys <> List.sort compare expect_keys then
         [ "result keys are " ^ String.concat "," keys ]
       else [])
      @ (if List.length names <> List.length listed then
           [ "result does not have exactly the metrics BENCHMARK.json lists" ]
         else [])
      @ (match (Jsonp.member "correct" v, int "attempted", int "failed") with
        | Some (J.Bool true), Some n, Some 0 when n >= 1 -> []
        | _ -> [ "result reports failed checks or no attempts" ])
      @ List.concat_map
          (fun m ->
            let name = Option.value (Jsonp.str "name" m) ~default:"?" in
            let got = Jsonp.field name metrics in
            match (Jsonp.num "value" got, Jsonp.str "unit" got) with
            | None, _ -> [ "metric missing: " ^ name ]
            | Some x, u when u <> Jsonp.str "unit" m || not (Float.is_finite x) ->
                [ "metric malformed: " ^ name ]
            | Some x, _ when (not trace) && x <= 0.0 ->
                [ "end-to-end metric not positive: " ^ name ]
            | Some _, _ -> [])
          listed)

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process *)

(* Runs one workload in a child process, which writes its results
   object to [results]; whether it exited normally, and its standard
   output. *)
let run_child a ~trace ~results (w : Workloads.t) =
  let args =
    [
      Sys.executable_name; "--workload"; w.Workloads.name; "--seed"; string_of_int a.seed;
      "--seconds"; Printf.sprintf "%g" a.seconds; "--trace"; (if trace then "1" else "0");
      "--out"; results;
    ]
    @ if a.smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let text = In_channel.input_all ic in
  (Unix.close_process_in ic = Unix.WEXITED 0, text)

(* At smoke size only the checks matter, and no results file is
   written. *)
let run_all a =
  Files.mkdir_p Files.scratch;
  let bench = Jsonp.parse_file "BENCHMARK.json" in
  let problems = ref [] in
  let modes = if a.smoke then [ false; true ] else [ a.trace ] in
  List.iter
    (fun trace ->
      let suffix = if trace then "-trace" else "" in
      let runs =
        List.filter_map
          (fun (w : Workloads.t) ->
            let results =
              Filename.concat Files.scratch
                (Printf.sprintf "%s%s-%d.json" w.Workloads.name suffix (Unix.getpid ()))
            in
            let ok, text = run_child a ~trace ~results w in
            let bad =
              if ok then line_problems ~bench ~trace (last_line text)
              else [ "child exited abnormally" ]
            in
            (* at smoke size, only a failing workload's lines are of interest *)
            if bad <> [] || not a.smoke then print_string text;
            problems := !problems @ List.map (fun p -> w.Workloads.name ^ suffix ^ ": " ^ p) bad;
            let run = if ok then Some (Jsonp.parse_file results) else None in
            Files.rm_rf results;
            run)
          Workloads.all
      in
      let run_set =
        J.Obj
          [
            ("schema", J.Str "mcc-benchmark-v1");
            ("seed", J.Int a.seed);
            ("trace", J.Int (if trace then 1 else 0));
            ("seconds", J.Float a.seconds);
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("runs", J.Arr runs);
          ]
      in
      if not a.smoke then begin
        let out =
          Option.value a.out
            ~default:
              (Filename.concat Files.scratch (Printf.sprintf "results-seed%d%s.json" a.seed suffix))
        in
        Out_channel.with_open_bin out (fun oc -> output_string oc (J.to_string run_set));
        Printf.printf "results: %s\n" out
      end)
    modes;
  Files.tidy_scratch ();
  match !problems with
  | [] -> print_endline "benchmark: every workload passed its checks"
  | ps ->
      List.iter (Printf.printf "PROBLEM %s\n") ps;
      exit 1

let () =
  let a = parse_args Sys.argv in
  match (a.positional, a.workload) with
  | [ "compare"; base; next ], None -> if Compare.run base next > 0 then exit 1
  | [], Some name -> Run.run (config a) (workload name)
  | [], None -> run_all a
  | _ -> usage ()
