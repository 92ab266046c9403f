(** Self-contained interface artifacts.

    Everything a definition-module stream produces — exported symbols,
    the interface's global frame layout, its diagnostics and its direct
    imports — packaged under a content fingerprint so a later
    compilation can install the interface instead of re-running its
    Lexor/Importer/DefParse stream (the cross-compilation extension of
    the paper's once-only table, §2.1).

    Artifacts are deeply immutable after capture and contain no events,
    mutexes or closures: they are safe to share across compilations
    in-memory and to Marshal for on-disk persistence. *)

open Mcc_m2
open Mcc_sem
open Mcc_codegen

(** A module-level global frame: key, slot descriptors, size. *)
type frame = { f_key : string; f_slots : (int * Tydesc.t) list; f_size : int }

type t = {
  a_name : string;
  a_imports : string list;  (** direct imports, in source order *)
  a_symbols : Symbol.t list;  (** exported entries, (offset, name)-sorted *)
  a_slices : (string * string) list;
      (** per-declaration slice digests, name-sorted: equal across
          compilations exactly when the declaration's interface is
          unchanged (a rendering of each type's identity, where it is
          declared, and its structure) *)
  a_install : string;
      (** stable digest over imports + frame + diagnostics: what
          installing the artifact does to a compilation regardless of
          which names are looked up *)
  a_shape : string;
      (** stable whole-interface digest (install + slices): the early
          cutoff comparison — identical shape means downstream
          invalidation stops here *)
  a_frame : frame;
  a_diags : Diag.d list;  (** diagnostics of the interface's analysis, sorted *)
  a_digest : string;
      (** hex MD5 over the payload fields above, set at capture: the
          artifact's identity.  It leaves out the fingerprint the cache
          stores the artifact under, so one artifact can move to a new
          fingerprint unchanged.  Type identities are where types are
          declared, so analyses of one text against the same imported
          artifacts have one identity, under any engine or schedule and
          in any process. *)
}

(** The stable digest of one exported declaration's interface. *)
val slice_digest : Symbol.t -> string

(** The slice digest recorded for an exported name, if any. *)
val slice : t -> string -> string option

(** Recompute the payload digest of [t] (everything but [a_digest]). *)
val digest : t -> string

(** [verify t] is true when [t]'s stored digest matches a recomputation
    — false after bit-rot, truncation or tampering. *)
val verify : t -> bool

(** Capture a just-completed definition-module scope.
    @raise Invalid_argument if the scope is incomplete. *)
val capture :
  name:string ->
  imports:string list ->
  scope:Symtab.t ->
  frame:frame ->
  diags:Diag.d list ->
  t

(** Replay the interface into a freshly interned scope: charge the
    install work, re-enter the symbols, merge the frame, replay the
    diagnostics and complete the scope (signaling its avoided event).
    The caller must ensure [a_imports] first, so transitively reached
    interfaces contribute their frames as they would cold. *)
val install : t -> scope:Symtab.t -> merger:Cunit.merger -> diags:Diag.t -> unit
