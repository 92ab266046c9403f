(** Deterministic, seeded fault plans: the spec language, the plan and
    its wire format.  A plan is armed by installing it in a run
    ({!Evlog.within}); the injection sites that consult the installed
    plan are [Mcc_sched.Fault], which includes this module.

    A fault {e plan} is a pure function of (seed, spec list): every
    decision to fire derives from a hash of the seed, the spec index and
    a per-spec occurrence counter, so replaying the same plan against
    the same deterministic schedule injects the same faults at the same
    points.  Injection sites {e pull}: the DES engine, driver, build
    cache and symbol tables each consult the armed plan with their local
    identity; the fault-free path costs one field read ([Fault.armed],
    the [Evlog.enabled] idiom).  Firing never charges [Eff.work] — only
    recovery costs virtual time.

    Spec grammar: [kind[:target][@k][%pct][!]] — e.g. [task-crash@5],
    [task-crash:procparse!], [source-error:M01@1], [dropped-wake%25].
    [@k] fires at exactly the k-th matching occurrence (default: a
    seed-derived point in 1..8); [%pct] fires each occurrence with the
    given seed-hashed percent chance; [!] pins the first victim by name
    so retries keep failing (the quarantine path).  DES/sequential only:
    the domain engine never arms a plan. *)

type kind =
  | Task_crash  (** crash at a scheduling point (start: retryable; resume: quarantine) *)
  | Dropped_wake  (** an event signal whose handled wake-ups are lost *)
  | Stall  (** extra dispatch latency for a worker *)
  | Corrupt_artifact  (** a cached interface artifact fails digest verification *)
  | Source_error  (** a source-store read error in the driver *)
  | Poison_import  (** an importer prefetch stream dies mid-scan *)
  | Early_complete
      (** a scope completes while its parser is still publishing — the
          deliberate Hb-violation fault (subsumes the old
          [Symtab.inject_early_complete] shim) *)
  | Node_crash  (** a farm node dies at a heartbeat; its closures are re-sharded *)
  | Node_slow  (** gray failure: a farm node serves at a fraction of its rate *)
  | Msg_drop  (** a remote-cache RPC message is lost (times out and retries) *)
  | Partition  (** the farm network splits into two halves for a window, then heals *)

(** Raised by injected faults that surface as task exceptions. *)
exception Injected of string

type spec = {
  kind : kind;
  target : string option;
  at : int option;  (** fire at exactly the k-th matching occurrence *)
  rate : int option;  (** percent chance per matching occurrence *)
  permanent : bool;
}

val kind_name : kind -> string
val all_kinds : kind list
val spec_to_string : spec -> string

(** Parse one spec. @raise Invalid_argument on a malformed spec. *)
val parse : string -> spec

(** Parse a comma-separated spec list (empty segments ignored). *)
val parse_list : string -> spec list

type plan

(** Fresh plan with zeroed occurrence counters.  [seed] defaults to 0. *)
val plan : ?seed:int -> spec list -> plan

(** {1 Wire format}

    The farm coordinator ships fault plans to simulated nodes.  A
    shipped plan is the {e schedule} — (seed, specs) — never the
    sender's replay state: {!of_bytes} always reconstructs a fresh plan
    with zeroed occurrence counters, so the round trip replays the
    identical fault schedule regardless of how far the source plan had
    already been consulted. *)

val to_bytes : plan -> string

(** Three newline-terminated lines of printable ASCII: the wire
    version, the seed and the comma-separated {!spec_to_string} list.
    @raise Invalid_argument on a wire-version mismatch, a truncated or
    altered copy, or any other input that is not such a plan. *)
val of_bytes : string -> plan

(** {1 Consultation} *)

(** [consult p kind ~name ~aux] counts one occurrence of a [kind] site
    with identity [name] (and auxiliary identity [aux], the task class
    where there is one) and says whether a fault fires there.  [target]
    matching: the spec's target must be a substring of [name] or equal
    to [aux]. *)
val consult : plan -> kind -> name:string -> aux:string -> bool

(** Faults the plan has fired so far. *)
val n_fired : plan -> int
