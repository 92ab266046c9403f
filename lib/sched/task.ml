(* Compiler tasks — the atomic unit of parallelism (paper §2.3.1).

   Each stream is partitioned into 2..5 tasks corresponding to the
   traditional phases of compilation.  The task classes below are exactly
   the priority classes of the Skeptical Handling compiler's Supervisor
   (paper §2.3.4):

     1. Lexor tasks
     2. Splitter task
     3. Importer tasks
     4. Definition-module Parser/Declarations-Analyzer tasks
     5. Module Parser/Declarations-Analyzer task
     6. Procedure Parser/Declarations-Analyzer tasks
     7. Long-procedure Statement-Analyzer/Code-Generator tasks
     8. Short-procedure Statement-Analyzer/Code-Generator tasks

   plus the merge task and auxiliary tasks, which are tiny and scheduled
   last.  "Code is generated for long procedures before short ones to
   avoid a long sequential tail at the end of the compilation." *)

type cls =
  | Lexor
  | Splitter
  | Importer
  | DefParse
  | ModParse
  | ProcParse
  | LongGen
  | ShortGen
  | Merge
  | Aux

let cls_priority = function
  | Lexor -> 0
  | Splitter -> 1
  | Importer -> 2
  | DefParse -> 3
  | ModParse -> 4
  | ProcParse -> 5
  | LongGen -> 6
  | ShortGen -> 7
  | Merge -> 8
  | Aux -> 9

let n_classes = 10

let classes =
  [ Lexor; Splitter; Importer; DefParse; ModParse; ProcParse; LongGen; ShortGen; Merge; Aux ]

let cls_name = function
  | Lexor -> "lexor"
  | Splitter -> "splitter"
  | Importer -> "importer"
  | DefParse -> "defparse"
  | ModParse -> "modparse"
  | ProcParse -> "procparse"
  | LongGen -> "longgen"
  | ShortGen -> "shortgen"
  | Merge -> "merge"
  | Aux -> "aux"

type state = Pending | Running | Blocked | Done

type t = {
  id : int;
  name : string;
  cls : cls;
  size_hint : int;
      (* estimated work, used to order code-generation tasks longest-first *)
  gate : Event.t option;
      (* avoided event: the Supervisor will not start this task before the
         gate has occurred (paper §2.3.3, "avoided events") *)
  body : unit -> unit;
  mutable state : state;
}

let create ?(size_hint = 0) ?gate ~cls ~name body =
  {
    id = Mcc_obs.Evlog.next_task ();
    name;
    cls;
    size_hint;
    gate;
    body;
    state = Pending;
  }

let pp ppf t = Format.fprintf ppf "task#%d[%s:%s]" t.id (cls_name t.cls) t.name
