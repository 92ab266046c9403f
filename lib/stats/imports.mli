(** Static import-graph analysis of a source store: the "Imported
    Interfaces" and "Import Nesting Depth" attributes of Table 1. *)

open Mcc_core

(** [(reachable interfaces, longest import chain)] from the main
    module; cycle-safe. *)
val analyze : Source_store.t -> int * int
