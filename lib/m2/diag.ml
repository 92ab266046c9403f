(* Diagnostics collection.

   Tasks from many streams report errors concurrently; the collector is
   mutex-protected and the final report is sorted by (file, offset, text)
   so that sequential and concurrent compilations of the same erroneous
   program produce byte-identical diagnostics regardless of schedule —
   a property the test suite checks. *)

type severity = Error | Warning

type d = { file : string; loc : Loc.t; msg : string; sev : severity }

type t = { mu : Mutex.t; mutable items : d list; mutable n_errors : int }

let create () = { mu = Mutex.create (); items = []; n_errors = 0 }

let add t ~file ~loc ~sev msg =
  Mutex.lock t.mu;
  t.items <- { file; loc; msg; sev } :: t.items;
  if sev = Error then t.n_errors <- t.n_errors + 1;
  Mutex.unlock t.mu

let add_d t d =
  Mutex.lock t.mu;
  t.items <- d :: t.items;
  if d.sev = Error then t.n_errors <- t.n_errors + 1;
  Mutex.unlock t.mu

let error t ~file ~loc msg = add t ~file ~loc ~sev:Error msg
let warning t ~file ~loc msg = add t ~file ~loc ~sev:Warning msg

let has_errors t = t.n_errors > 0

let compare_d a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.loc.Loc.off b.loc.Loc.off with
      | 0 -> String.compare a.msg b.msg
      | c -> c)
  | c -> c

let sorted t =
  Mutex.lock t.mu;
  let items = t.items in
  Mutex.unlock t.mu;
  List.sort compare_d items

let to_string d =
  Printf.sprintf "%s:%s: %s: %s" d.file (Loc.to_string d.loc)
    (match d.sev with Error -> "error" | Warning -> "warning")
    d.msg

let report t = String.concat "\n" (List.map to_string (sorted t))
