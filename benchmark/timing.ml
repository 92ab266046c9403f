(* Wall clock, allocation and order statistics for the benchmark. *)

(* Monotonic seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated so far by this domain, on either heap.  The minor
   count comes from [Gc.minor_words], since [Gc.counters]' lags until
   the next minor collection; [Gc.quick_stat] would cost a microsecond
   a call. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* (minor, major) collections so far. *)
let collections () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

module Quantile = Mcc_util.Quantile

let median xs = Quantile.percentile 50.0 (Quantile.sorted_of_list xs)

(* First and third quartiles the way Python's
   [statistics.quantiles(xs, n=4)] computes them (the "exclusive"
   method), so spreads here match the ones the acceptance check takes. *)
let quartiles xs =
  let a = Quantile.sorted_of_list xs in
  match Array.length a with
  | 0 -> (nan, nan)
  | 1 -> (a.(0), a.(0))
  | ld ->
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = float_of_int ((i * m) - (j * 4)) in
        ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
      in
      (q 1, q 3)

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it, if any. *)
let p_hi n =
  List.find_opt
    (fun p -> (1.0 -. (p /. 100.0)) *. float_of_int n >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 75.0 ]
