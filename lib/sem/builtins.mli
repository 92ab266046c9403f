(** The builtin ("standard identifier") environment: types, TRUE/FALSE/
    NIL, standard functions and procedures, builtin I/O, and the
    mathematical routines the paper names (§2.2).

    Treated as if declared local to every scope: {!Symtab.lookup}
    consults this table right after the starting scope, before chaining
    outward, so a builtin reference never incurs a DKY wait — safe
    because builtin names cannot be redeclared (declaration analysis
    enforces it).  The table is immutable and always complete. *)

val all : (string * Symbol.t) list
val find : string -> Symbol.t option
val is_builtin : string -> bool
val count : int
