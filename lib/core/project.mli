(** Whole-program compilation: the "parallel make" layer above the
    concurrent compiler.

    Compiles the main module plus every imported module whose
    implementation is in the store — each with the full concurrent
    compiler — and links all code units into one executable program with
    Modula-2 initialization order (an imported module's body runs before
    its importer's; the main module's last).  Interface frames are
    deduplicated by key; the result is schedule-independent like the
    single-module merge (paper §2.1).

    With a {!cache} the layer is incremental at two granularities.
    Whole-module: a module whose own source, configuration and
    transitive interface fingerprints are unchanged is restored from its
    cached per-module result.  Slice-level (the default, after Smits,
    Konat & Visser's hybrid incremental compilers): a module is dirty
    only if a declaration it actually {e used} changed.  A refresh
    prepass settles stale interfaces in topological waves, an import
    cycle as one unit, and propagation stops with an {e early cutoff}
    wherever the interface shape is unchanged.  A stale interface whose
    text and imports' artifacts are unchanged is {e re-keyed} (its
    artifact moves to its new fingerprint, unanalysed); a re-analysed
    one keeps its previous artifact when its shape, which covers the
    identities of its types, is unchanged.  A
    module's key then hashes the identities of the artifacts in its
    interface closure ({!Build_cache.identity_key}), so an edit that
    leaves every artifact in place leaves every key in place. *)

open Mcc_m2
open Mcc_codegen

(** One dependency of a cached module result on an interface it reached:
    the interface's install digest ([None] if the interface was missing)
    and its artifact's identity, plus per exported name the compilation
    probed there its slice digest, which covers the identities of the
    types the name reaches.  Probes that missed are negative
    dependencies, recorded with a reserved absent marker. *)
type dep = {
  dep_name : string;
  dep_install : string option;
  dep_identity : string option;
  dep_slices : (string * string) list;
}

(** A memoized per-module compilation, holding only what a key hit
    consumes: the module's code units and global frames, its
    diagnostics and verdict, and the digest of the implementation
    source it was built from. *)
type entry = {
  e_units : Cunit.t list;
  e_frames : (string * (int * Tydesc.t) list * int) list;
  e_diags : Diag.d list;
  e_ok : bool;
  e_src_digest : string;
}

(** A project-level cache: the shared interface store plus the
    per-module result memo, each entry's fine-grained dependency record
    stored beside it and decoded only when its key misses. *)
type cache = { bc : Build_cache.t; memo : (entry, dep list) Build_cache.memo }

(** [cache ?dir ()] — with [dir], persisted interface artifacts and
    whole-module results are loaded now and {!save} writes them back, so
    successive [m2c build] processes reuse each other's work. *)
val cache : ?dir:string -> unit -> cache

(** Persist the interface store and the module memo to the cache's
    directory: each file gets one appended batch of what changed since
    it was loaded, or is compacted when its dead bytes would exceed its
    live ones (a no-op for an in-memory cache, and a file whose store is
    unchanged since it was loaded is not written). *)
val save : cache -> unit

(** What a build keeps of a module it compiled: the compilation's
    stream and task counts and its virtual compile time, in work units
    and in seconds ([Des_engine.result]'s [end_time]/[end_seconds]). *)
type summary = { streams : int; tasks : int; units : float; seconds : float }

(** How the refresh prepass settled a stale interface. *)
type settle =
  | Rekeyed
      (** its text and its imports' artifacts are unchanged: its
          previous artifact moved to its new fingerprint, unanalysed *)
  | Kept
      (** re-analysed; shape (type identities included) unchanged, so
          the previous artifact was kept *)
  | Changed of string list
      (** re-analysed into a new shape: the exported names whose slice
          digests moved, or a parenthesised note when none did *)

type result = {
  program : Cunit.program;
  diags : Diag.d list;
  ok : bool;
  modules : string list;  (** every module of the program, in init order *)
  compiled : (string * summary) list;
      (** summaries of the modules compiled this call, in init order *)
  total_units : float;
      (** summed virtual compile time across recompiled modules plus
          [reuse_units] and [refresh_units] — equals the cacheless total
          when nothing is reused *)
  reused : string list;  (** modules restored from the cache, in init order *)
  recompiled : string list;  (** modules compiled this call, in init order *)
  reuse_units : float;  (** hash + probe work charged for reuse checks *)
  refresh_units : float;
      (** virtual time of the interface refresh prepass (0 when no
          interface edits were detected, or in whole-module mode) *)
  cutoffs : string list;
      (** stale interfaces whose shape stayed byte-identical, where
          invalidation stopped early (re-keyed ones count); sorted *)
  explain : (string * string) list;
      (** per module in init order, a one-line reuse/rebuild reason *)
  settled : (string * settle) list;
      (** per stale interface, in the order the refresh prepass settled
          them, how it settled *)
}

(** Module initialization order for the store (imports before importers,
    main last), restricted to modules with implementations. *)
val init_order : Source_store.t -> string list

(** The configuration component of a module cache key (interface
    artifacts are configuration-independent; cached module results,
    which embed simulated timings, are not). *)
val config_tag : Driver.config -> string

(** Compile the whole store.  [fine] (default [true]) enables
    slice-level invalidation and early cutoff; [~fine:false] restricts
    the cache to whole-module key matching — the baseline the
    fine-grained benchmark compares against. *)
val compile : ?config:Driver.config -> ?fine:bool -> ?cache:cache -> Source_store.t -> result
