(** The sequential baseline compiler (paper §4.2's comparison point).

    The same lexer, parser/declaration analysis and statement
    analyzer/code generator as the concurrent compiler, run in one
    thread with none of the concurrent machinery: no token queues, no
    splitter (procedure bodies parse inline), interfaces processed
    depth-first at their import sites, no events or scheduling.  Work
    units accumulate directly, giving the sequential virtual compile
    time Table 1 reports.

    Produces byte-identical programs and diagnostics to the concurrent
    compiler for the same source — the property the test suite checks.
    Each compile runs in an empty observation context of its own: it
    records nothing, and its scope and event ids count from 0. *)

open Mcc_m2
open Mcc_sem
open Mcc_codegen

type result = {
  program : Cunit.program;
  diags : Diag.d list;
  ok : bool;
  cost_units : float;  (** virtual sequential execution time, work units *)
  stats : Lookup_stats.t;
}

val compile : Source_store.t -> result
