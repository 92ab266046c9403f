(* The effect interface between compiler tasks and execution engines.

   Compiler code (lexer, parser, analyzers, code generator) is written as
   ordinary direct-style OCaml that occasionally performs one of four
   effects: charge work, wait on an event, signal an event, spawn a task.
   An execution engine is an effect handler:

   - the discrete-event simulation engine ([Des_engine]) interprets
     [Work] as virtual time on a simulated processor and [Wait]/[Signal]
     as scheduler transitions, producing deterministic timings;
   - the shared-memory engine ([Domain_engine]) runs the same tasks on
     real domains under one mutex;
   - both hand [Wait]/[Signal]/[Spawn] steps to the step interpreter
     they share ([Interp]), which parks and wakes continuations;
   - outside any engine ("direct mode", used by the sequential compiler
     and by unit tests) [work] accumulates into a running total, [signal]
     marks the event, and [wait] insists the event has already occurred —
     the sequential compiler's processing order guarantees it has.

   Work charges are batched: [work] accumulates into a task-local counter
   and only performs the [Work] effect once [Costs.quantum] units have
   accumulated, so effect-handling overhead stays negligible while event
   timing keeps sub-millisecond virtual resolution.  The accumulator must
   be flushed before any scheduling operation, which [wait]/[signal]/
   [spawn] do internally; a finishing task hands its residue back through
   the [Finished] step. *)

type _ Effect.t +=
  | Work : int -> unit Effect.t
  | Wait : Event.t -> unit Effect.t
  | Signal : Event.t -> unit Effect.t
  | Spawn : Task.t -> unit Effect.t

exception Deadlock_in_direct_mode of string

type mode = Direct | Engine

(* Read concurrently by domain-engine workers, but only ever written
   while a single thread is active (engines set it before spawning
   workers and restore it after joining them). *)
let mode = ref Direct

(* The accumulator, the direct-mode total and the accounting switch are
   the installed run's ([Evlog.run]).  In [Engine] mode one task runs
   between two effect performs (the DES is single-threaded; domain runs
   charge nothing), so one accumulator per run is sound. *)
module Evlog = Mcc_obs.Evlog

let within ?obs ?accounting m f =
  let saved = !mode in
  mode := m;
  Fun.protect ~finally:(fun () -> mode := saved) (fun () -> Evlog.within ?obs ?accounting f)

let get_direct_total () = (Evlog.run ()).direct_total

let flush () =
  let r = Evlog.run () in
  if r.acc > 0 then begin
    let c = r.acc in
    r.acc <- 0;
    match !mode with
    | Engine -> Effect.perform (Work c)
    | Direct -> r.direct_total <- r.direct_total +. float_of_int c
  end

let work n =
  let r = Evlog.run () in
  if r.accounting then begin
    r.acc <- r.acc + n;
    if r.acc >= Costs.quantum then flush ()
  end

(* [n] unit charges at once.  A run of [work 1] calls flushes exactly
   when the accumulator reaches [Costs.quantum] (or at the first call if
   it already holds more), so fill up to that point, flush, and repeat:
   the same [Work] effects, at the same points, as [n] calls of [work 1]. *)
let work_units n =
  let r = Evlog.run () in
  if r.accounting && n > 0 && r.acc + n < Costs.quantum then r.acc <- r.acc + n
  else begin
    let rem = ref n in
    while !rem > 0 do
      let r = Evlog.run () in
      if r.accounting then begin
        let take = if r.acc >= Costs.quantum then 1 else Int.min !rem (Costs.quantum - r.acc) in
        r.acc <- r.acc + take;
        rem := !rem - take;
        if r.acc >= Costs.quantum then flush ()
      end
      else rem := 0
    done
  end

let wait ev =
  if Event.occurred ev then ()
  else begin
    work Costs.wait_check_cost;
    flush ();
    match !mode with
    | Engine -> Effect.perform (Wait ev)
    | Direct ->
        raise
          (Deadlock_in_direct_mode
             (Format.asprintf "wait on unoccurred %a outside an engine" Event.pp ev))
  end

let signal ev =
  work Costs.signal_cost;
  flush ();
  match !mode with
  | Engine -> Effect.perform (Signal ev)
  | Direct -> Event.mark ev

let spawn task =
  work Costs.spawn_cost;
  flush ();
  match !mode with
  | Engine -> Effect.perform (Spawn task)
  | Direct -> failwith "Eff.spawn: cannot spawn a task outside an engine"

(* ------------------------------------------------------------------ *)
(* Stepping: engines drive task bodies through this interface.  Running
   a body yields a [step]; continuing the embedded resumption yields the
   next step.  Deep handlers mean the handler installed by [start] stays
   in force for the task's whole lifetime, even when the continuation is
   resumed later (or, for the domain engine, on a different domain). *)

type step =
  | Finished of int (* residual work units left in the accumulator *)
  | Failed of exn * Printexc.raw_backtrace
  | Worked of int * resumption
  | Blocked of Event.t * resumption
  | Signaled of Event.t * resumption
  | Spawned of Task.t * resumption

and resumption = (unit, step) Effect.Deep.continuation

let handler : (unit, step) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        let r = Evlog.run () in
        let c = r.acc in
        r.acc <- 0;
        Finished c);
    exnc =
      (fun e ->
        (Evlog.run ()).acc <- 0;
        (* drop residue: the task is aborting anyway *)
        Failed (e, Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (e : a Effect.t) ->
        match e with
        | Work n -> Some (fun (k : (a, step) Effect.Deep.continuation) -> Worked (n, k))
        | Wait ev -> Some (fun k -> Blocked (ev, k))
        | Signal ev -> Some (fun k -> Signaled (ev, k))
        | Spawn t -> Some (fun k -> Spawned (t, k))
        | _ -> None);
  }

let start (body : unit -> unit) : step = Effect.Deep.match_with body () handler
let resume (k : resumption) : step = Effect.Deep.continue k ()

(* Abort a suspended task by raising [e] at its suspension point: the
   body unwinds normally (Fun.protect cleanups run) and the deep
   handler's [exnc] converts the escape into a [Failed] step.  Used by
   the DES engine's fault injection to crash a task mid-flight. *)
let discontinue (k : resumption) (e : exn) : step = Effect.Deep.discontinue k e
