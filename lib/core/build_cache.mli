(** The content-addressed build cache.

    The {e interface store} maps content fingerprints to interface
    artifacts; a fingerprint digests the artifact format version, the
    definition module's source and the fingerprints of its direct
    imports — transitively covering every interface it depends on.
    Beside each artifact the index records its identity (its
    [a_digest]) and the digest of the source it was analysed from, so
    an artifact that is still valid can move to a new fingerprint
    ({!rekey}) without being decoded or re-marshaled.
    [Driver.config] is excluded: compiler output is strategy-,
    schedule- and processor-independent, so one artifact serves every
    configuration.  The {e module memo} maps whole-module keys (which
    {e do} include a configuration tag, because cached results embed
    simulated timings) to per-module compilation results, for
    [Project]'s incremental layer.

    Fingerprints are computed once per build, by {!graph}; a
    compilation's engine tasks read them there.  No function here calls
    [Eff.work]: the hashing work is returned as units for the caller to
    charge. *)

(** {1 The interface store} *)

type t

(** [create ?dir ?cap_bytes ()] makes an empty cache; with [dir],
    previously {!save}d interface artifacts are loaded from it.  The file
    is a log of batches, each sealed by an MD5 over its index (each
    artifact's fingerprint, name, source digest, identity, and the place,
    length and MD5 of its marshaled bytes) chained to the seal before
    it.  Loading checks the seals only and replays the records in order,
    so the last record for a fingerprint wins; it decodes nothing, and
    each artifact is unmarshaled at its first use ({!find_interface},
    {!latest_artifact}, {!interfaces}, {!stored_artifact}), once its
    bytes match their MD5.  A missing file loads nothing; a file without
    its format tag loads nothing and counts one {!corrupt_count}; the
    load stops at a batch torn off the end of the file (uncounted: a
    save died writing it) or at one whose seal fails (counted once), and
    keeps the state before it.  Bytes that fail their MD5 count as
    corruption and a miss, and never reach [Marshal].  Artifacts whose
    bytes check out count as verified.  With [cap_bytes], the store is size-bounded: whenever
    the marshaled sizes of the stored artifacts exceed the bound,
    least-recently-used entries are evicted (counted by
    {!eviction_count}, never counted as invalidations) — except the
    entry just stored, so one oversized artifact still caches. *)
val create : ?dir:string -> ?cap_bytes:int -> unit -> t

(** Persist the interface store under the creation [dir]: append one
    sealed batch with the records stored, re-keyed or dropped since the
    last load or save (a re-keyed artifact's record points at the bytes
    already in the file), under an exclusive lock on the file.  When the
    file is not the one loaded, or its dead bytes would exceed its live
    ones, the save compacts instead: every live record, each payload
    with its stored MD5, is written to a temporary file renamed into
    place.  Artifacts stored without [~checked] and never probed are
    verified first (loaded and captured ones already count as verified);
    one that fails is dropped and counted in {!corrupt_count}.  A store
    with nothing stored, evicted or dropped since it was loaded leaves
    its file untouched.  No-op without a [dir]. *)
val save : t -> unit

(** Direct imports of a source text, in first-occurrence order without
    repeats, by a charge-free re-implementation of the importer's scan
    ([Stream.run_importer]): it never calls [Eff.work]. *)
val scan_imports : string -> string list

(** [condense ~node ~edges ~settled emit roots] calls [emit] on each
    strongly connected component (Tarjan) reachable from [roots] of the graph
    whose node [v] has data [node v] and successors [edges (node v)],
    not entering nodes [settled] holds for: the members with their data,
    sorted by name, after every component they reach.  [size] (default
    16) is the number of nodes the walk expects to enter. *)
val condense :
  ?size:int -> node:(string -> 'a) -> edges:('a -> string list) -> settled:(string -> bool) ->
  ((string * 'a) list -> unit) -> string list -> unit

(** [interface_fp t ~memo ~store name] returns the interface's
    {!fingerprint} and the hashing units this call performed.  [memo]
    maps the names of one [store] to fingerprints: on a miss, one
    {!graph} of [store] fills it and digests every interface. *)
val interface_fp :
  t -> memo:(string, string) Hashtbl.t -> store:Source_store.t -> string -> string * int

(** Look up an artifact by fingerprint; counts a hit or miss.  The
    probe verifies before handing anything to the install path: the
    identity in the index must equal the artifact's digest and the
    digest must match a payload recomputation — checked once per stored
    value
    (an armed [Fault] plan can declare the artifact corrupt on any
    probe).  A failure evicts the entry, counts corruption + an
    invalidation, and reports a miss, so the caller rebuilds from source
    and heals the cache.  A loaded artifact is unmarshaled here at its
    first probe; bytes that fail to decode count as corruption and a
    miss, the same way. *)
val find_interface : t -> fp:string -> Artifact.t option

(** [store_interface t ~fp ~source a] stores [a] under fingerprint
    [fp], recording [source], the {!interface_digest} of the text it
    was analysed from; if the interface's previous fingerprint differs,
    counts an invalidation and drops the stale artifact.  [~checked:true]
    vouches that [a] was just captured by {!Artifact.capture} in this
    process, so neither its first probe nor {!save} re-digests it; any
    other artifact is verified once before use. *)
val store_interface : ?checked:bool -> t -> fp:string -> source:string -> Artifact.t -> unit

(** All stored artifacts, sorted by module name. *)
val interfaces : t -> Artifact.t list

(** The most recently stored artifact for an interface name — the
    fine-grained reuse check's view of the interface as it is now.
    Counter-free, except that an artifact whose bytes fail to decode at
    its first use is dropped and counted in {!corrupt_count}. *)
val latest_artifact : t -> string -> Artifact.t option

(** {2 Index entries}

    What the refresh prepass of [Project] reads to settle a stale
    interface without re-analysing it, and what a build farm copies
    between node caches. *)

(** An interface's entry in the index: its fingerprint, the source
    digest it was analysed from, its identity and its artifact. *)
type stored

(** The entry of an interface's {!latest_artifact}, from the index:
    decodes nothing, counter-free.  The handle stays valid after the
    entry is replaced or dropped. *)
val latest : t -> string -> stored option

val stored_fingerprint : stored -> string

(** The {!interface_digest} of the text the entry's artifact was analysed
    from (or, after a {!rekey}, last vouched for). *)
val stored_source : stored -> string

(** The entry's artifact identity ({!Artifact.t.a_digest}), from the
    index. *)
val stored_identity : stored -> string

(** The length of the entry's marshaled artifact: its charge against
    the size bound, and what a copy between caches transfers. *)
val stored_bytes : stored -> int

(** The entry's artifact, decoded at its first use; [None] if its bytes
    do not decode, in which case an entry still in the store is dropped
    and counted in {!corrupt_count}. *)
val stored_artifact : t -> stored -> Artifact.t option

(** [rekey t s ~fp ~source] makes [s]'s artifact its interface's latest
    again, under fingerprint [fp] and source digest [source]: one index
    entry sharing the bytes, identity and verification of [s].  The
    artifact is not decoded or re-marshaled.  Counts an invalidation
    when the interface's latest fingerprint was not [fp], as
    {!store_interface} does. *)
val rekey : t -> stored -> fp:string -> source:string -> unit

(** Store [s]'s artifact in another cache under the same fingerprint,
    source digest and identity, sharing its bytes. *)
val copy_interface : stored -> into:t -> unit

(** (hits, misses, invalidations) of the interface store. *)
val counters : t -> int * int * int

(** Entries evicted by the [cap_bytes] size bound (capacity management:
    not invalidations, not corruption). *)
val eviction_count : t -> int

(** Current marshaled size of the interface store, in bytes. *)
val total_bytes : t -> int

(** Artifacts dropped by verification (on {!find_interface} probes and
    at {!save}), payloads of either file that fail to decode, and cache
    files or batches rejected at load; each probe-time drop is also
    counted in the invalidations of {!counters}. *)
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

(** {1 The inputs of one build} *)

(** What one build derives from its sources, once: per name of the
    program its interface and implementation records (text digest and
    {!scan_imports}), every interface's fingerprint (one pass over the
    interface graph: a missing interface fingerprints as a "missing"
    marker, each member of an import cycle digests its name and the
    whole cycle), and the closure identities of {!identity_key}.  Each
    interface's hashing is charged once per graph, to the first
    {!fingerprint} or key that reaches it.  A graph belongs to one build
    and one thread, except that its records and fingerprints are fixed
    when it is built: the build's compiles read them from any domain
    ({!def_fingerprint}, {!closure_units}, {!interface_digest}). *)
type graph

val graph : t -> Source_store.t -> graph

(** [graph_over t g]: a graph of [g]'s program over cache [t], sharing
    [g]'s records and fingerprints, so it digests and scans nothing.
    Its closure identities are computed afresh against [t], and it
    charges as a new graph does. *)
val graph_over : t -> graph -> graph

(** The cache the graph was built over. *)
val graph_cache : graph -> t

(** The interface names of the store, in no particular order. *)
val graph_defs : graph -> string list

(** An interface's direct imports ([[]] when it has no source). *)
val def_imports : graph -> string -> string list

(** A module's direct imports, [None] when it has no implementation. *)
val impl_imports : graph -> string -> string list option

(** The hex MD5 of an interface's source, [None] when it has none. *)
val interface_digest : graph -> string -> string option

(** The hex MD5 of a module's implementation source.
    @raise Invalid_argument when it has none. *)
val impl_digest : graph -> string -> string

(** An interface's fingerprint, and the hashing units of its closure
    that no earlier fingerprint or key of this graph charged. *)
val fingerprint : graph -> string -> string * int

(** [def_fingerprint g name text] is interface [name]'s fingerprint
    when [text] is its source in [g], [None] when [g] holds another text
    or none: a graph of another store gives no fingerprint. *)
val def_fingerprint : graph -> string -> string -> string option

(** The hashing units of the interfaces reached from [name] along
    {!def_imports} that [seen] does not hold; they are added to it. *)
val closure_units : graph -> seen:(string, unit) Hashtbl.t -> string -> int

(** [module_key g ~config_tag name] is the whole-module cache key of
    module [name], plus the hashing units it charges (its
    implementation source, and as for {!fingerprint} the interface
    closures of its own definition and direct imports).  Digests the
    configuration tag, the implementation source, and the interface
    fingerprints of the module's own definition and direct imports:
    the compile server's key, and [Project]'s in whole-module mode.
    @raise Invalid_argument when [name] has no implementation. *)
val module_key : graph -> config_tag:string -> string -> string * int

(** [identity_key g ~config_tag name] is [Project]'s whole-module key of
    module [name], plus the same hashing units as {!module_key}: it
    digests the configuration tag, the implementation source and, per
    interface of the module's own definition and direct imports, the
    identities of the artifacts in that interface's closure (each
    stored under its current fingerprint, read from the index without
    decoding).  Re-keying an interface leaves it unchanged.  The
    members of an import cycle share one closure, over their identities
    in name order.  A missing interface, or one with no artifact under
    its current fingerprint, stands in by its fingerprint; a closure
    resting on the latter is computed again at the next key.  The key
    never equals a {!module_key} key. *)
val identity_key : graph -> config_tag:string -> string -> string * int

(** {1 The module-result memo} *)

(** A memo of ['r] results, each with an optional ['d] side record
    stored beside it and decoded only on demand ({!latest_side}). *)
type ('r, 'd) memo

(** [memo ?cap ()] makes an empty module memo.  With [cap], the memo is
    bounded to that many entries, evicted cost-aware (GreedyDual): each
    entry's priority is [L + cost] where [cost] is the recompute cost
    passed to {!store_module} and [L] a monotone inflation level raised
    to each victim's priority; hits refresh an entry's priority.  Cheap,
    long-idle results go first; with uniform costs this is LRU. *)
val memo : ?cap:int -> unit -> ('r, 'd) memo

(** Look up a module result by key; counts a hit or miss.  A loaded
    result is unmarshaled at its first use (here or in
    {!find_latest_module}); one that fails to decode is dropped and
    counts as a miss. *)
val find_module : ('r, 'd) memo -> string -> 'r option

(** The module's most recently stored (key, result) regardless of key —
    the fine-grained check's previous-build baseline.  Counter-free. *)
val find_latest_module : ('r, 'd) memo -> name:string -> (string * 'r) option

(** [lookup_module m ~name ~key] looks module [name]'s result up by
    name first: [None] when the memo holds none, else [Some (k, k', r)]
    with [k] the key [key ()] computes, [k'] the key of the latest
    result [r].  [key] runs only when there is a result, so a module
    the memo has never seen costs no key.  Counts a hit when [k = k']
    and a miss otherwise, as {!find_module} does. *)
val lookup_module :
  ('r, 'd) memo -> name:string -> key:(unit -> string) -> (string * string * 'r) option

(** The side record stored with the module's most recently stored
    result, decoded at its first use; [None] when it has none, or when
    its bytes fail to decode (the entry is then dropped).
    Counter-free. *)
val latest_side : ('r, 'd) memo -> name:string -> 'd option

(** Store a module result, with [side] as its side record; if the
    module's previous key differs, counts an invalidation and drops the
    stale result.  [cost] (default 1.0) is the entry's recompute cost
    for cost-aware eviction — callers pass the simulated seconds the
    compile took. *)
val store_module :
  ?cost:float -> ?side:'d -> ('r, 'd) memo -> name:string -> key:string -> 'r -> unit

(** [rekey_module m ~name ~key] moves the module's latest entry, with
    its side record and kept bytes, to [key]; counts an invalidation
    when its key was not [key], as {!store_module} does.  Nothing is
    decoded or re-marshaled. *)
val rekey_module : ('r, 'd) memo -> name:string -> key:string -> unit

(** (hits, misses, invalidations) of the module memo. *)
val memo_counters : ('r, 'd) memo -> int * int * int

(** Entries evicted by the memo's [cap] bound. *)
val memo_eviction_count : ('r, 'd) memo -> int

(** Fill [memo] from the cache's directory (written by {!save_memo}); a
    no-op without a directory or on a missing file.  As for {!create},
    the batches' seals are checked and their records replayed, a
    rejected file or unsealed batch counts one {!corrupt_count}, and no
    result is unmarshaled until its first use, nor any side record until
    asked for; an entry whose bytes then fail their MD5 or do not decode
    is dropped on its own and counted in the cache's {!corrupt_count}.  The
    payloads are marshaled untyped, so the persisted result and side
    types must only change together with the file format tag. *)
val load_memo : t -> ('r, 'd) memo -> unit

(** Persist [memo] next to the interface artifacts, as {!save} does:
    one appended batch, or a compaction; a no-op without a directory,
    and without a write when nothing was stored, re-keyed or evicted
    since the memo was loaded or saved.  An entry
    that fails to marshal is skipped, not fatal.  An entry loaded or
    saved before, and not replaced since (one moved by {!rekey_module}
    keeps them), is written back from its kept bytes, result and side
    record alike: stored values must not be mutated in place. *)
val save_memo : t -> ('r, 'd) memo -> unit
