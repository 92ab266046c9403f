(* File-system helpers.  Paths are relative to the working directory,
   the root of a checkout. *)

(* Where the benchmark writes its build caches and, unless told
   otherwise, its results: under dune's own build directory. *)
let scratch = Filename.concat "_build" "benchmark"

(* Removes [scratch], and the [_build] above it, where they are empty. *)
let tidy_scratch () =
  List.iter (fun d -> try Sys.rmdir d with Sys_error _ -> ()) [ scratch; Filename.dirname scratch ]

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* Total size of the regular files directly under [dir]. *)
let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all
