(* Events — the concurrency mechanism of the compiler (paper §2.3.1/§2.3.3).

   "An event is simply something that either has or has not occurred.  A
   task waits on an event if and only if it hasn't occurred."

   Three categories (paper §2.3.3):
   - [Avoided]: the Supervisor refuses to start a task gated on an avoided
     event until the event has occurred, because the task would block
     almost immediately (e.g. a procedure stream before its heading has
     been processed in the parent scope).
   - [Handled]: a task waiting on a handled event is suspended and its
     processor is given other work, preferring the task that will signal
     the event (DKY blockages, symbol-table completions).
   - [Barrier]: the waiting processor stays bound to the task until the
     event occurs (token-block availability in the token streams, where
     waits are known to be short and producers never block).

   The event object itself is engine-neutral: the engines' shared step
   interpreter ([Interp]) keeps the waiter queues, keyed by [id].  [occurred] is monotonic (false -> true)
   and atomic so that the domain engine's lock-free fast-path check is
   well-defined; it is only flipped through an engine (via [Eff.signal])
   or through [mark] in direct (non-engine) execution. *)

type kind = Avoided | Handled | Barrier

type t = {
  id : int;
  name : string;
  kind : kind;
  occurred_flag : bool Atomic.t;
  mutable producer : int; (* task id expected to signal this event; -1 unknown *)
}

let create ?(producer = -1) ~kind name =
  {
    id = Mcc_obs.Evlog.next_event ();
    name;
    kind;
    occurred_flag = Atomic.make false;
    producer;
  }

let occurred t = Atomic.get t.occurred_flag
let set_producer t task_id = t.producer <- task_id

(* Direct marking: used by engines (under their own synchronization) and
   by the sequential compiler where no scheduler is present. *)
let mark t = Atomic.set t.occurred_flag true

let pp ppf t =
  let k = match t.kind with Avoided -> "avoided" | Handled -> "handled" | Barrier -> "barrier" in
  Format.fprintf ppf "event#%d[%s,%s,%s]" t.id t.name k (if occurred t then "set" else "unset")
