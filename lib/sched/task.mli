(** Compiler tasks — the atomic unit of parallelism (paper §2.3.1).

    Each stream is partitioned into 2..5 tasks corresponding to the
    traditional compilation phases; [cls] is the Supervisor priority
    class of §2.3.4 (lexors first; long-procedure code generation before
    short, via [size_hint]). *)

type cls =
  | Lexor
  | Splitter
  | Importer
  | DefParse  (** definition-module parser / declarations analyzer *)
  | ModParse  (** main-module parser / declarations analyzer *)
  | ProcParse  (** procedure parser / declarations analyzer *)
  | LongGen  (** long-procedure statement analyzer / code generator *)
  | ShortGen  (** short-procedure statement analyzer / code generator *)
  | Merge
  | Aux

(** Priority of a class: lower runs first. *)
val cls_priority : cls -> int

(** Number of priority classes. *)
val n_classes : int

(** Every class, in priority order: [cls_priority c] is [c]'s index. *)
val classes : cls list

val cls_name : cls -> string

type state = Pending | Running | Blocked | Done

type t = {
  id : int;  (** from the installed run's counter ({!Mcc_obs.Evlog.next_task}) *)
  name : string;
  cls : cls;
  size_hint : int;  (** estimated work; orders code-generation tasks longest-first *)
  gate : Event.t option;
      (** avoided event: the Supervisor will not start the task before it
          occurs (paper §2.3.3) *)
  body : unit -> unit;  (** performs {!Eff} effects *)
  mutable state : state;
}

val create : ?size_hint:int -> ?gate:Event.t -> cls:cls -> name:string -> (unit -> unit) -> t
val pp : Format.formatter -> t -> unit
