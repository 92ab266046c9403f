(** Deterministic trace-context allocation (no wall clock).

    A trace id is a 64-bit FNV-1a hash of (domain, seed, key) rendered
    as 16 hex digits; span ids come from the installed {!Evlog.ctx},
    which every traced run makes fresh.  Allocation order is a pure
    function of the seeded virtual schedule, so same-seed runs produce
    identical id sequences — the property behind CI's byte-identical
    export check. *)

type t = { trace : string; span : int; parent : int  (** -1 = root *) }

(** Allocate the installed context's next span id (1, 2, 3, ... within
    one context). *)
val fresh : unit -> int

(** [trace_id ~domain ~seed ~key] — deterministic 16-hex-digit trace
    id, e.g. [trace_id ~domain:"serve" ~seed ~key:"client-2/job17"]. *)
val trace_id : domain:string -> seed:int -> key:string -> string

(** A root context ([parent = -1]) with a fresh span id. *)
val root : trace:string -> t

(** A child context: same trace, fresh span id, parent = [t.span]. *)
val child : t -> t
