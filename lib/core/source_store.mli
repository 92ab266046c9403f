(** The compilation's view of the file system: one implementation module
    [M.mod] plus the interface sources ([.def]) of everything it could
    import (paper §3).  Abstracts real files versus generated in-memory
    sources so the benchmark harness compiles synthetic programs without
    touching disk. *)

type t

val make :
  ?impls:(string * string) list ->
  main_name:string ->
  main_src:string ->
  defs:(string * string) list ->
  unit ->
  t
val main_name : t -> string
val main_src : t -> string

(** "M.mod", for diagnostics. *)
val main_file : t -> string

val def_src : t -> string -> string option

(** "N.def", for diagnostics. *)
val def_file : string -> string

val has_def : t -> string -> bool

(** Interface names present, sorted. *)
val def_names : t -> string list

(** Implementation source of any module in the program (the main module
    included). *)
val impl_src : t -> string -> string option

(** [iter_defs t f] calls [f name src] on every interface, in no
    particular order. *)
val iter_defs : t -> (string -> string -> unit) -> unit

(** [iter_impls t f] calls [f name src] on every implementation, the
    main module's included, in no particular order. *)
val iter_impls : t -> (string -> string -> unit) -> unit

(** An upper bound on the distinct module names of the store. *)
val n_names : t -> int

(** Modules with implementations, sorted (main included). *)
val impl_names : t -> string list

(** The same program viewed with [name] as the compilation unit.
    @raise Invalid_argument when [name] has no implementation. *)
val focus : t -> string -> t

(** [probe t ~prefix imports]: a program over [t]'s interfaces whose
    main module, named [prefix] (or [prefix] and the first number that
    no interface or main module of [t] is named), has an empty body and
    imports [imports] in order.  Compiling it compiles exactly their
    interface closures. *)
val probe : t -> prefix:string -> string list -> t

(** Total source bytes of the module plus every interface present. *)
val total_bytes : t -> int

(** Load [main_name.mod] and every sibling [.def] from a directory (the
    CLI path).
    @raise Sys_error when the module file is unreadable. *)
val of_directory : dir:string -> main_name:string -> t
