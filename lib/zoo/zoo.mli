(** The workload-zoo runner: one engine that replays corpus scenario
    directories through their manifest-declared oracles, replays loose
    shrunk reproducers dropped by [m2c check --save], and pushes
    generated adversarial shapes ({!Shapes}) through the full
    differential matrix.  Every divergence is a structured {!failure}
    with the oracle, the field and both sides — never a bare boolean —
    so a regression names itself. *)

type failure = {
  f_scenario : string;
  f_oracle : string;  (** which oracle (and cell) flagged it *)
  f_field : string;  (** first differing field / golden line *)
  f_expected : string;
  f_actual : string;
}

(** ["scenario: oracle: field: expected ... got ..."], truncated sides. *)
val failure_to_string : failure -> string

type outcome = {
  o_scenario : string;
  o_kind : string;  (** [corpus], [shape] or [repro] *)
  o_oracles : string list;  (** oracles applied, in order *)
  o_failures : failure list;  (** empty = clean *)
  o_updated : string list;
      (** golden files [update_golden] wrote because their content
          changed; a record that was already current is left alone *)
}

(** Run one corpus scenario directory through its manifest's oracles.
    [update_golden] writes each [expect/] record that differs from the
    observed behaviour instead of diffing against it (conformance and
    incremental equivalences are still checked — goldens pin behaviour,
    they never excuse a divergence). *)
val run_dir : ?update_golden:bool -> string -> outcome

(** Replay the loose [repro*] reproducer groups at the corpus root
    (files dropped by [m2c check --save] and ingested wholesale): each
    group is rebuilt into a store and pushed through the conformance
    oracle.  One outcome per group. *)
val run_repros : dir:string -> outcome list

(** Generate a shape and push it through the differential oracle matrix
    (strategies x processors, plus a warm-cache cell), the project-level
    warm≡cold check, and — when runnable — VM execution. *)
val run_spec : ?seed:int -> Shapes.spec -> outcome

(** Scenario subdirectories of a corpus root, sorted. *)
val scenario_dirs : dir:string -> string list
