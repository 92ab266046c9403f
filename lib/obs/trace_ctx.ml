(* Deterministic trace-context allocation.

   Distributed-tracing identity with no wall clock and no global
   randomness: a trace id is a 64-bit FNV-1a hash of a (domain, seed,
   key) triple — the same serve/farm run with the same seed names its
   traces identically, byte for byte — and span ids come from the
   installed [Evlog] context, so every traced run, which installs its
   own, numbers its spans from 1.  Because span allocation order is a
   pure function of the run's virtual schedule (itself seeded),
   same-seed runs allocate identical span id sequences, which is what
   makes the exported traces `cmp`-equal in CI.

   The record mirrors W3C trace-context / OTLP shape — trace id, span
   id, parent span id — but stays plain ints/strings so the bottom-of-
   stack [Mcc_obs] library needs no new dependencies. *)

type t = { trace : string; span : int; parent : int (* -1 = root *) }

let fresh = Evlog.next_span

(* FNV-1a, 64-bit: tiny, stable, and good enough to keep distinct
   (domain, seed, key) triples from colliding in practice. *)
let fnv64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime) s;
  !h

let trace_id ~domain ~seed ~key =
  Printf.sprintf "%016Lx" (fnv64 (Printf.sprintf "%s#%d#%s" domain seed key))

let root ~trace = { trace; span = fresh (); parent = -1 }
let child t = { trace = t.trace; span = fresh (); parent = t.span }
