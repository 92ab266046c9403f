(* The builtin ("standard identifier") environment.

   The paper's treatment (§2.2): a conventional global builtin scope at
   the root of the scope chain would make the first reference to a
   builtin name incur DKY waits on every incomplete scope out to the
   root, so builtins "were treated as if they were declared local to
   each scope ... done by a simple modification of the symbol table
   search mechanism".  [Symtab.lookup] consults this table immediately
   after missing in the starting scope, before chaining outward — safe
   because builtin names cannot be redeclared in Modula-2+, which
   declaration analysis enforces.

   The table is immutable after module initialization and therefore
   always complete; its hits appear in the Table 2 statistics as
   "First try / Builtin / complete". *)

open Symbol

let entry name skind = (name, Symbol.make ~name ~def_off:(-1) skind)

let all : (string * Symbol.t) list =
  [
    (* types *)
    entry "INTEGER" (SType Types.TInt);
    entry "CARDINAL" (SType Types.TCard);
    entry "BOOLEAN" (SType Types.TBool);
    entry "CHAR" (SType Types.TChar);
    entry "REAL" (SType Types.TReal);
    entry "BITSET" (SType Types.TBitset);
    entry "EXCEPTION" (SType Types.TExc);
    entry "MUTEX" (SType Types.TMutex);
    (* constants *)
    entry "TRUE" (SConst (Value.VBool true, Types.TBool));
    entry "FALSE" (SConst (Value.VBool false, Types.TBool));
    entry "NIL" (SConst (Value.VNil, Types.TNil));
    (* standard functions *)
    entry "ABS" (SBuiltin BAbs);
    entry "CAP" (SBuiltin BCap);
    entry "CHR" (SBuiltin BChr);
    entry "FLOAT" (SBuiltin BFloat);
    entry "HIGH" (SBuiltin BHigh);
    entry "MAX" (SBuiltin BMax);
    entry "MIN" (SBuiltin BMin);
    entry "ODD" (SBuiltin BOdd);
    entry "ORD" (SBuiltin BOrd);
    entry "TRUNC" (SBuiltin BTrunc);
    entry "VAL" (SBuiltin BVal);
    entry "SIZE" (SBuiltin BSize);
    (* mathematical routines (paper §2.2: "builtin ... like sin and sqrt") *)
    entry "sqrt" (SBuiltin BSqrt);
    entry "sin" (SBuiltin BSin);
    entry "cos" (SBuiltin BCos);
    entry "ln" (SBuiltin BLn);
    entry "exp" (SBuiltin BExp);
    (* standard procedures *)
    entry "INC" (SBuiltin BInc);
    entry "DEC" (SBuiltin BDec);
    entry "INCL" (SBuiltin BIncl);
    entry "EXCL" (SBuiltin BExcl);
    entry "HALT" (SBuiltin BHalt);
    entry "NEW" (SBuiltin BNew);
    entry "DISPOSE" (SBuiltin BDispose);
    (* builtin input/output routines (paper §2.2) *)
    entry "WriteInt" (SBuiltin BWriteInt);
    entry "WriteLn" (SBuiltin BWriteLn);
    entry "WriteString" (SBuiltin BWriteString);
    entry "WriteChar" (SBuiltin BWriteChar);
    entry "WriteReal" (SBuiltin BWriteReal);
    entry "ReadInt" (SBuiltin BReadInt);
  ]

(* Probed on every lookup that misses its starting scope: keyed by
   string equality, not the polymorphic compare. *)
module Names = Hashtbl.Make (String)

let table =
  let h = Names.create 64 in
  List.iter (fun (n, s) -> Names.add h n s) all;
  h

let find name = Names.find_opt table name
let is_builtin name = Names.mem table name
let count = List.length all
