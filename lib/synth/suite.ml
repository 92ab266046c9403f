(* The synthetic evaluation suite.

   Stands in for the 37 DEC SRC Modula-2+ modules of the paper's Table 1.
   The entries ramp from very small to very large with characteristics
   correlated the way real software is: bigger modules have more
   procedures, more imported interfaces and deeper import nesting.  The
   quartile split of §4.2 (10/8/10/9 programs with 1-processor compile
   times in 0..5 / 5..10 / 10..30 / 30..109 s bands) is reproduced by
   choosing per-entry work budgets on a geometric ramp across those
   bands.

   [comment_pad] adds block comments to procedure bodies: large real
   modules carry proportionally more comment text, which is why the
   paper's compile times grow sublinearly in module bytes — the padding
   reproduces that relation (comments cost lexing only).

   [synth_best ()] generates Synth.mod, the best-case module of §4.2:
   many same-sized procedures whose bodies reference only their own
   locals and builtins, so compilation "generates ample parallel work for
   the compiler and never incurs a DKY blockage". *)

open Mcc_core

let n_programs = 37

(* Target 1-processor compile times (paper-style seconds), ramped within
   the four quartile bands. *)
let targets =
  let band lo hi n = List.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int n)) in
  band 1.35 2.8 9 @ band 2.9 5.2 9 @ band 6.2 15.0 10 @ band 17.0 58.0 9

let clamp lo hi v = max lo (min hi v)

(* Empirical work model (calibrated against the generator): one
   procedure with the default statement budget costs ~11k units; one
   definition module ~4.5k units. *)
let shape_of_target ~rank ~seconds : Gen.shape =
  let units = seconds /. Mcc_sched.Costs.seconds_per_unit in
  let n_procs = clamp 2 221 (int_of_float (units *. 0.85 /. 11_000.0) + (max 0 (rank - 28) * 5)) in
  let n_defs = clamp 4 133 (int_of_float (units *. 0.50 /. 4_500.0)) in
  let depth = clamp 1 12 (n_defs / 3) in
  {
    Gen.seed = 7_000 + (rank * 131);
    name = Printf.sprintf "M%02d" rank;
    n_defs;
    depth;
    n_procs;
    nested_per_proc = (if rank mod 3 = 0 then 1 else 0);
    stmts_lo = 5 + (rank mod 4);
    stmts_hi = 14 + (2 * (rank mod 5));
    module_vars = 4 + (2 * n_procs / 3);
    def_size = 1 + (rank / 12);
    pad = (if rank >= 30 then (rank - 29) * 60 else 0);
    runnable = false;
  }

let shapes : Gen.shape list =
  List.mapi (fun rank seconds -> shape_of_target ~rank ~seconds) targets

(* Generated afresh on every call: the whole suite takes a few tens of
   milliseconds.  The suite-wide [seed] perturbs every shape's generator
   seed; [seed = 0] reproduces the canonical suite exactly. *)
let program ?(seed = 0) rank =
  let shape = List.nth shapes rank in
  let gen_seed = if seed = 0 then shape.Gen.seed else shape.Gen.seed + (seed * 1_000_003) in
  Gen.generate ~seed:gen_seed shape

let all ?(seed = 0) () = List.init n_programs (fun rank -> program ~seed rank)

let target_seconds rank = List.nth targets rank

(* The compile-server traffic generator's default program pool: ranks
   whose 1-processor target compile time fits the budget.  Decided from
   the shape targets alone — no program is generated. *)
let ranks_under seconds =
  List.concat (List.mapi (fun rank t -> if t <= seconds then [ rank ] else []) targets)

(* ------------------------------------------------------------------ *)
(* Synth.mod: the mechanically generated best-possible module (§4.2). *)

let synth_best ?(n_procs = 96) ?(stmts = 24) () : Source_store.t =
  let buf = Buffer.create (n_procs * 900) in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  p "IMPLEMENTATION MODULE Synth;\n\n";
  for i = 0 to n_procs - 1 do
    p "PROCEDURE W%d(seed: INTEGER): INTEGER;\n" i;
    p "VAR a, b, c, k: INTEGER; flag: BOOLEAN;\n";
    p "BEGIN\n";
    p "  a := seed; b := seed * 3; c := 1; flag := FALSE;\n";
    for s = 0 to stmts - 1 do
      match s mod 6 with
      | 0 ->
          p "  FOR k := 0 TO %d DO c := c + ((a MOD 7) * (k + 1)) - ((b DIV 5) + ABS(c - k)) END;\n"
            (5 + (s mod 9))
      | 1 -> p "  IF (a > b) OR flag THEN a := a - %d ELSE b := b - %d END;\n" (s + 1) (s + 2)
      | 2 -> p "  flag := ODD(a + b + c);\n"
      | 3 -> p "  c := ABS((a - b) * (c + %d)) + ((c MOD %d) * ORD(ODD(a)));\n" (s + 1) (3 + (s mod 5))
      | 4 -> p "  k := %d;\n  WHILE k > 0 DO a := a + 1; k := k - 1 END;\n" (4 + (s mod 6))
      | _ -> p "  b := (b * 2) MOD 1000 + ORD(flag);\n"
    done;
    p "  RETURN a + b + c\nEND W%d;\n\n" i
  done;
  p "BEGIN\n";
  p "END Synth.\n";
  Source_store.make ~main_name:"Synth" ~main_src:(Buffer.contents buf) ~defs:[] ()
