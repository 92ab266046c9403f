(** The execution engine for compiled programs: runs the stack machine
    of [Mcc_codegen.Instr], standing in for the paper's CVax hardware so
    compiled Modula-2+ programs actually run.

    Every assignable slot lives in some value array (a procedure frame,
    a module global frame, an array/record body, or a heap cell);
    locations designate one such slot.  Each code unit is translated
    once per run, on its first call: its basic blocks' expression trees
    are rebuilt by running the stack symbolically and compiled into
    OCaml closures, and the shared evaluation stack carries only values
    that cross an effect or a block boundary.  Calls are OCaml
    recursion, so Modula-2+ exception propagation unwinds activations;
    the static chain implements uplevel addressing.  Execution is
    metered by [fuel], one step per instruction, and activations are
    limited to a depth of 100,000, so runaway programs fail cleanly; a
    frame slot outside its frame traps when its instruction runs. *)

type v =
  | VInt of int
  | VReal of float
  | VBool of bool
  | VChar of char
  | VStr of string
  | VSet of int
  | VNil
  | VUninit
  | VArr of v array  (** arrays and records *)
  | VCell of v array  (** heap cell from NEW: one slot *)
  | VLoc of v array * int  (** a location: slot [i] of an array *)
  | VProc of string
  | VExc of string  (** EXCEPTION value: stable declaration identity *)
  | VMutex

exception Runtime_error of string
exception M2_exception of string
exception Halted

type status =
  | Finished
  | Halt_called
  | Trap of string  (** runtime error: bounds, NIL, DIV 0, uninitialized, ... *)
  | Uncaught_exception of string

type result = {
  output : string;
  status : status;
  steps : int;
  store_digest : string;
      (** MD5 over a canonical rendering of every module global frame at
          termination — the "final store" differential-conformance
          observation ({!Mcc_check}); identical programs and inputs
          always produce identical digests *)
}

(** [run ?fuel ?input program] executes the entry (module body) unit.
    [input] feeds [ReadInt]; [output] collects the Write* builtins. *)
val run : ?fuel:int -> ?input:int list -> Mcc_codegen.Cunit.program -> result

val status_to_string : status -> string
