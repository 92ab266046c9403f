(** Per-scope symbol tables and the Doesn't-Know-Yet strategies
    (paper §2.2, the heart of the system).

    One table per scope of declaration (definition module, main module,
    procedure), linked by [parent] into the scope ancestry path.  A
    table is {e incomplete} while its stream's parser is still entering
    symbols; searches from other streams that miss in an incomplete
    table face the DKY problem, resolved per the configured strategy.

    Visibility: declaration-time references (finite [use_off]) see only
    symbols declared at smaller textual offsets (declare-before-use);
    statement analysis passes [use_off = max_int].  Definition modules
    and builtins are fully visible.  Builtins are consulted right after
    the starting scope, never via the chain (§2.2's builtin treatment).

    All operations are mutex-protected for the domain engine, and no
    lock is ever held across an engine operation. *)

(** The strategies of §2.2 (plus the sequential baseline's rule):
    - [Sequential]: never wait, a miss is a miss;
    - [Avoidance]: never wait — the {e driver} gates dependent tasks so
      non-self tables are complete before they are searched;
    - [Pessimistic]: wait for completion before searching any incomplete
      non-self table;
    - [Skeptical]: Figure 6 — search first, wait only on a miss in an
      initially incomplete table, then search again (the recommended
      compromise, and the default);
    - [Optimistic]: per-symbol events — a miss installs a placeholder
      whose event is signaled when the real symbol arrives, or swept
      when the table completes. *)
type dky = Sequential | Avoidance | Pessimistic | Skeptical | Optimistic

val dky_name : dky -> string

(** The four concurrent strategies (everything but [Sequential]). *)
val all_concurrent : dky list

type kind = KBuiltin | KDef of string | KMain of string | KProc of string

(** Name-keyed tables (string equality, not the polymorphic compare). *)
module Names : Hashtbl.S with type key = string

type t = {
  sid : int;  (** from the installed run's counter ({!Mcc_obs.Evlog.next_scope}) *)
  kind : kind;
  sname : string;  (** [scope_name kind], cached *)
  parent : t option;
  tbl : Symbol.t Names.t;
  completion : Mcc_sched.Event.t;
  mutable complete : bool;
  mutable had_placeholders : bool;
  mu : Mutex.t;
}

val scope_name : kind -> string
val create : ?parent:t -> kind -> t
val is_complete : t -> bool

(** The handled event signaled by {!mark_complete}. *)
val completion_event : t -> Mcc_sched.Event.t

(** Record the task that will complete this scope, for Supervisor
    preference on DKY blocks. *)
val set_producer : t -> int -> unit

(** Raw find: no statistics, full visibility, placeholders hidden. *)
val find_opt : t -> string -> Symbol.t option

(** All real entries, sorted by (offset, name) — deterministic. *)
val entries : t -> Symbol.t list

(** [select t f]: [f]'s image of each real entry it maps to [Some], in
    the order of {!entries}.  Only the selected entries are sorted, so
    picking a few entries of a large scope stays cheap. *)
val select : t -> (Symbol.t -> 'a option) -> 'a list

(** Enter a symbol.  Atomic with respect to search; replaces (and
    signals) an optimistic placeholder of the same name.

    Fault injection: when an armed [Mcc_sched.Fault] plan fires an
    [early-complete] fault on this scope while it is incomplete but
    already holds a symbol, the scope completes prematurely, so later
    entries publish {e after} completion — the early-publish bug
    [Mcc_analysis.Hb] must detect.  DES-only. *)
val enter : t -> Symbol.t -> [ `Ok | `Dup of Symbol.t ]

(** Export a completed scope's symbols for an interface artifact —
    {!entries} plus a completeness check.
    @raise Invalid_argument if the scope is incomplete. *)
val export : t -> Symbol.t list

(** Bulk-enter previously exported symbols into a freshly interned
    scope (an artifact cache hit).  Goes through {!enter}, so optimistic
    placeholders installed in the meantime are replaced and signaled;
    the caller then calls {!mark_complete}. *)
val import_export : t -> Symbol.t list -> unit

(** Flip [complete], sweep optimistic placeholders ("all unsignaled
    events are signaled", §2.3.3) and signal the completion event. *)
val mark_complete : t -> unit

(** Simple-identifier lookup starting in [scope] (the searching stream's
    own scope — probed without waiting, since only its own task searches
    it while incomplete), then builtins, then the ancestry chain under
    the strategy's DKY protocol.  Records Table 2 statistics. *)
val lookup :
  strategy:dky -> stats:Lookup_stats.t -> use_off:int -> scope:t -> string -> Symbol.t option

(** Qualified-identifier lookup: [scope] is the designated module scope,
    no outward chaining; full visibility. *)
val lookup_qualified : strategy:dky -> stats:Lookup_stats.t -> scope:t -> string -> Symbol.t option
