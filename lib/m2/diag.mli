(** Diagnostics collection.

    Tasks from many streams report errors concurrently; the collector is
    mutex-protected and the final report sorts by (file, offset, text),
    so sequential and concurrent compilations of the same erroneous
    program produce identical diagnostics regardless of schedule — a
    property the test suite checks. *)

type severity = Error | Warning

type d = { file : string; loc : Loc.t; msg : string; sev : severity }

type t

val create : unit -> t
val add : t -> file:string -> loc:Loc.t -> sev:severity -> string -> unit

(** Add an already-built diagnostic (e.g. one replayed from a cached
    interface artifact). *)
val add_d : t -> d -> unit
val error : t -> file:string -> loc:Loc.t -> string -> unit
val warning : t -> file:string -> loc:Loc.t -> string -> unit
val has_errors : t -> bool

(** The (file, offset, message) ordering used by {!sorted}. *)
val compare_d : d -> d -> int

(** All diagnostics, sorted by (file, offset, message). *)
val sorted : t -> d list

val to_string : d -> string

(** The sorted report, one diagnostic per line. *)
val report : t -> string
