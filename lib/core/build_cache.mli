(** The content-addressed build cache.

    The {e interface store} maps content fingerprints to interface
    artifacts; a fingerprint digests the artifact format version, the
    definition module's source and the fingerprints of its direct
    imports — transitively covering every interface it depends on.
    [Driver.config] is excluded: compiler output is strategy-,
    schedule- and processor-independent, so one artifact serves every
    configuration.  The {e module memo} maps whole-module keys (which
    {e do} include a configuration tag, because cached results embed
    simulated timings) to per-module compilation results, for
    [Project]'s incremental layer.

    No function here calls [Eff.work]: fingerprinting runs inside
    engine tasks under the caller's memo lock, where a yield would
    block the cooperative engine.  The hashing work is returned as
    units for the caller to charge. *)

(** {1 The interface store} *)

type t

(** [create ?dir ?cap_bytes ()] makes an empty cache; with [dir],
    previously {!save}d interface artifacts are loaded from it (missing,
    stale or unreadable files are ignored) and the type-uid counter is
    bumped past every unmarshalled uid.  With [cap_bytes], the store is
    size-bounded: whenever the marshaled sizes of the stored artifacts
    exceed the bound, least-recently-used entries are evicted (counted
    by {!eviction_count}, never counted as invalidations) — except the
    entry just stored, so one oversized artifact still caches. *)
val create : ?dir:string -> ?cap_bytes:int -> unit -> t

(** Persist the interface store under the creation [dir] as a single
    Marshal blob (preserving value sharing between artifacts).  No-op
    without a [dir]. *)
val save : t -> unit

(** Direct imports of a source text, in first-occurrence order without
    repeats, by a charge-free re-implementation of the importer's scan
    ([Stream.run_importer]): it never calls [Eff.work]. *)
val scan_imports : string -> string list

(** {!scan_imports}, memoized by source digest. *)
val imports_of : t -> string -> string list

(** The hashing work for [len] source bytes, in virtual units. *)
val hash_units : int -> int

(** [interface_fp t ~memo ~store name] returns the interface's content
    fingerprint and the uncharged hashing units this call performed.
    [memo] (module name to fingerprint) is owned by one compilation and
    guarded by its owner; a missing interface fingerprints as a
    distinct "missing" marker, and circular imports terminate via a
    provisional cycle marker. *)
val interface_fp :
  t -> memo:(string, string) Hashtbl.t -> store:Source_store.t -> string -> string * int

(** Look up an artifact by fingerprint; counts a hit or miss.  The
    probe verifies before handing anything to the install path: the key
    must equal the artifact's recorded fingerprint and the stored digest
    must match a payload recomputation (an armed [Fault] plan can also
    declare the artifact corrupt).  A failure evicts the entry, counts
    corruption + an invalidation, and reports a miss, so the caller
    rebuilds from source and heals the cache. *)
val find_interface : t -> fp:string -> Artifact.t option

(** Store an artifact; if the interface's previous fingerprint differs,
    counts an invalidation and drops the stale artifact. *)
val store_interface : t -> Artifact.t -> unit

(** All stored artifacts, sorted by module name. *)
val interfaces : t -> Artifact.t list

(** The most recently stored artifact for an interface name — the
    fine-grained reuse check's view of the interface as it is now.
    Counter-free. *)
val latest_artifact : t -> string -> Artifact.t option

(** (hits, misses, invalidations) of the interface store. *)
val counters : t -> int * int * int

(** Entries evicted by the [cap_bytes] size bound (capacity management:
    not invalidations, not corruption). *)
val eviction_count : t -> int

(** Current marshaled size of the interface store, in bytes. *)
val total_bytes : t -> int

(** Artifacts dropped by digest verification (on {!find_interface}
    probes and at load time); each probe-time drop is also counted in
    the invalidations of {!counters}. *)
val corrupt_count : t -> int

(** {1 Conformance-canary hooks}

    Used only by the differential conformance harness ({!Mcc_check}) to
    prove its oracle catches real corruption: {!tamper} plants a bogus
    replayed diagnostic in the stored artifact for [name] without
    updating the payload digest, and {!disable_verification} turns off
    probe-time digest verification on that one cache so the tampering
    installs instead of healing. *)

val disable_verification : t -> unit
val tamper : t -> name:string -> unit

(** {1 The module-result memo} *)

type 'r memo

(** [memo ?cap ()] makes an empty module memo.  With [cap], the memo is
    bounded to that many entries, evicted cost-aware (GreedyDual): each
    entry's priority is [L + cost] where [cost] is the recompute cost
    passed to {!store_module} and [L] a monotone inflation level raised
    to each victim's priority; hits refresh an entry's priority.  Cheap,
    long-idle results go first; with uniform costs this is LRU. *)
val memo : ?cap:int -> unit -> 'r memo

(** [module_key t ~memo ~config_tag store] is the whole-module cache key
    of [store]'s main module (the module-focused view: its main source
    is the implementation), plus uncharged hashing units.  Digests the
    configuration tag, the implementation source, and the interface
    fingerprints of the module's own definition and direct imports. *)
val module_key :
  t -> memo:(string, string) Hashtbl.t -> config_tag:string -> Source_store.t -> string * int

(** Look up a module result by key; counts a hit or miss. *)
val find_module : 'r memo -> string -> 'r option

(** The module's most recently stored (key, result) regardless of key —
    the fine-grained check's previous-build baseline.  Counter-free. *)
val find_latest_module : 'r memo -> name:string -> (string * 'r) option

(** Store a module result; if the module's previous key differs, counts
    an invalidation and drops the stale result.  [cost] (default 1.0) is
    the entry's recompute cost for cost-aware eviction — callers pass
    the simulated seconds the compile took. *)
val store_module : ?cost:float -> 'r memo -> name:string -> key:string -> 'r -> unit

(** (hits, misses, invalidations) of the module memo. *)
val memo_counters : 'r memo -> int * int * int

(** Entries evicted by the memo's [cap] bound. *)
val memo_eviction_count : 'r memo -> int

(** Fill [memo] from the cache's directory (written by {!save_memo}); a
    no-op without a directory, on a missing/unreadable file, or on a
    format-version mismatch, and entries that fail to unmarshal are
    dropped individually.  [decode] post-processes each loaded entry
    (e.g. re-arming locks stripped for serialization).  The payload is
    marshaled untyped — the version tag is the only format guard, so the
    persisted result type must only change together with a version
    bump. *)
val load_memo : ?decode:('r -> 'r) -> t -> 'r memo -> unit

(** Persist [memo] next to the interface artifacts; a no-op without a
    directory.  [encode] pre-processes each entry into a marshal-safe
    form; an entry that still fails to marshal is skipped, not fatal.
    An entry loaded or saved before, and not stored over since, is
    written back from its kept bytes without [encode]: stored results
    must not be mutated in place. *)
val save_memo : ?encode:('r -> 'r) -> t -> 'r memo -> unit
