(** The Splitter and Importer task bodies (paper §3).

    The Splitter is the finite-state recognizer that the reserved-word
    restriction makes possible (§2.1): it diverts each procedure's
    tokens to a fresh stream (tracking only parenthesis depth to find
    heading ends and END-nesting depth to find body ends, with one token
    of lookahead to distinguish procedure declarations from procedure
    types), leaving the heading plus a [SplitMark] in the parent stream.
    Nested procedures recurse: a child stream plays the parent for its
    own nested streams.

    The Importer scans a token stream for IMPORT declarations, stopping
    at the first declaration keyword. *)

open Mcc_m2
module D = Mcc_sem.Declare
module Symtab = Mcc_sem.Symtab

(** One procedure stream: its token queue, its scope (created eagerly,
    parented into the enclosing stream's scope), and the avoided event
    gating its parser until the parent has processed the heading
    (alternative 1). *)
type proc_stream = {
  ps_id : int;
  ps_name : string;
  ps_path : string;  (** scope path, e.g. "M.P.Q" *)
  ps_q : Tokq.t;
  ps_scope : Symtab.t;
  ps_gate : Mcc_sched.Event.t;
  ps_depth : int;  (** procedure nesting depth, 1 = top level *)
  ps_redeclared : bool;
      (** an earlier stream already has this path: the procedure is a
          redeclaration (its heading is rejected) and emits no code *)
  mutable ps_heading : D.heading_info option;  (** set by the parent parser *)
}

(** Reserved words that open an END-terminated construct (the splitter's
    depth tracking). *)
val opens_end : Token.kw -> bool

(** Run the splitter over the raw token stream [rd], passing
    non-procedure tokens to [out] and creating a stream per procedure.
    [on_stream] fires as soon as a stream is created — before any of its
    tokens arrive — so the driver can spawn its parser immediately. *)
val run_splitter :
  rd:Reader.t ->
  out:Tokq.t ->
  root_scope:Symtab.t ->
  root_path:string ->
  next_id:(unit -> int) ->
  on_stream:(proc_stream -> unit) ->
  unit

(** Scan for IMPORT declarations, calling [on_import] per module name. *)
val run_importer : rd:Reader.t -> on_import:(string -> unit) -> unit
