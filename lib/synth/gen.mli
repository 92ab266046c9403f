(** The synthetic Modula-2+ program generator: the substitute for the
    proprietary DEC SRC library behind the paper's test suite.

    Deterministic from a seed; type-correct by construction (the suite
    must compile cleanly under every driver and strategy); exercises the
    whole language subset — import DAGs with controlled depth and
    fan-out, FROM-imports and qualified names, the full type and
    statement language, nested procedures with uplevel references, and
    the Modula-2+ TRY/RAISE/LOCK extensions.  Procedure sizes are
    heavily skewed, producing the long code-generation tails the paper's
    long-before-short scheduling fights. *)

open Mcc_core

type shape = {
  seed : int;
  name : string;  (** module name; also prefixes interface names *)
  n_defs : int;  (** definition modules generated (all reachable) *)
  depth : int;  (** import-nesting depth *)
  n_procs : int;  (** top-level procedures in the main module *)
  nested_per_proc : int;  (** max nested procedures per top-level one *)
  stmts_lo : int;
  stmts_hi : int;  (** statement budget per procedure body *)
  module_vars : int;  (** scales the module-level declaration section *)
  def_size : int;  (** scales the declaration count of interfaces *)
  pad : int;
      (** bytes of comment text per procedure: big modules carry
          proportionally more comments, making compile time sublinear in
          module size as in Table 1 *)
  runnable : bool;
      (** when set: calls go only to already-emitted procedures, all
          loops are bounded, and no uninitialized storage is read — the
          compiled program terminates in the VM *)
}

(** Generate the module and all its interfaces.  [?seed] overrides
    [shape.seed] (the suite threads one user-visible seed through every
    shape this way). *)
val generate : ?seed:int -> shape -> Source_store.t

(** {1 Shape mutations}

    The reduction moves the conformance shrinker applies before falling
    back to source-level delta debugging: each strictly reduces some
    size field while keeping the shape generatable, and returns the
    shape {e unchanged} when it cannot reduce further (the caller's
    fixpoint signal). *)

type mutation =
  | Drop_defs
  | Halve_defs
  | Shallow_imports
  | Halve_procs
  | Drop_nested
  | Halve_stmts
  | Halve_module_vars
  | Shrink_def_size
  | Drop_pad

(** Every mutation, in the order the shrinker tries them. *)
val mutations : mutation list

val mutation_name : mutation -> string
val mutate : shape -> mutation -> shape

(** {1 Implementation synthesis and the edit stream}

    Fuel for the fine-grained incremental build layer: {!with_impls}
    turns a generated single-implementation program into a multi-module
    project, and {!edit_stream} derives a seeded sequence of
    single-declaration edits over it. *)

(** Give every definition module that lacks one a synthetic
    implementation (each declared procedure gets a deterministic body),
    so the whole project — not just the main module — is compiled and
    cached.  Existing implementations are kept.  Linear in the sources
    (one table lookup per interface), apart from sorting the names. *)
val with_impls : Source_store.t -> Source_store.t

(** The three edit classes, by what they may invalidate:
    [Body_only] touches one implementation body (exactly that module
    should rebuild); [Sig_preserving] touches interface text without
    changing any declaration (the fingerprint moves, the shape digest
    does not — early cutoff should rebuild nothing); [Sig_changing]
    changes one exported constant's value (one slice digest moves —
    only modules that used that slice should rebuild). *)
type edit_class = Body_only | Sig_preserving | Sig_changing

val class_name : edit_class -> string

type edit = {
  e_class : edit_class;
  e_target : string;  (** the module whose source the edit touched *)
  e_slice : string option;  (** the declaration a [Sig_changing] edit moved *)
  e_store : Source_store.t;  (** the project after the edit *)
}

(** [edit_stream ?seed ~n store] — [n] edits, cumulative (each applies
    to the previous edit's store), deterministic in [seed].  The store
    is passed through {!with_impls} first; edits degenerate gracefully
    (a class with no viable target falls back to [Body_only]) so any
    generated program yields a full-length stream.

    Cost: one {!with_impls} of [store]; then per edit, the edited text,
    work in the number of interfaces edited so far, and one
    [Source_store.make] of the project for [e_store]; and once, on the
    first [Sig_changing] draw, a scan of every interface for its
    constants. *)
val edit_stream : ?seed:int -> n:int -> Source_store.t -> edit list
