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

   Work charges are batched: [work] accumulates into the installed run's
   counter and only performs the [Work] effect once [Costs.quantum]
   units have accumulated, so effect-handling overhead stays negligible
   while event timing keeps sub-millisecond virtual resolution.  The
   accumulator must be flushed before any scheduling operation, which
   [wait]/[signal]/[spawn] do internally; a finishing task hands its
   residue back through the [Finished] step.

   The mode (engine or direct) is a field of that run too, and each
   domain has its own installed run ([Evlog.run], a [Domain.DLS] slot),
   so a compile on one domain never charges into, or takes its mode
   from, a compile on another.  Each call reads the slot once, which
   costs [work] about 5 ns over a global slot (8.7 ns a call against
   4.0 ns). *)

type _ Effect.t +=
  | Work : int -> unit Effect.t
  | Wait : Event.t -> unit Effect.t
  | Signal : Event.t -> unit Effect.t
  | Spawn : Task.t -> unit Effect.t

exception Deadlock_in_direct_mode of string

module Evlog = Mcc_obs.Evlog

type mode = Evlog.mode = Direct | Engine

(* Inert: nothing in the library reads it (see the interface). *)
let mode = ref Direct

(* In [Engine] mode one task runs between two effect performs on a
   domain (the DES is single-threaded; domain runs charge nothing), so
   one accumulator per run is sound.  Each call below reads the run once
   and keeps it across its own perform: only a charging run performs
   [Work], and a charging run's tasks resume on the domain and in the
   run that suspended them. *)

let within ?obs ?accounting m f = Evlog.within ?obs ?accounting ~mode:m f
let get_direct_total () = (Evlog.run ()).direct_total

let flush_run (r : Evlog.run) =
  if r.acc > 0 then begin
    let c = r.acc in
    r.acc <- 0;
    match r.mode with
    | Engine -> Effect.perform (Work c)
    | Direct -> r.direct_total <- r.direct_total +. float_of_int c
  end

let flush () = flush_run (Evlog.run ())

let work n =
  let r = Evlog.run () in
  if r.accounting then begin
    r.acc <- r.acc + n;
    if r.acc >= Costs.quantum then flush_run r
  end

(* [n] unit charges at once.  A run of [work 1] calls flushes exactly
   when the accumulator reaches [Costs.quantum] (or at the first call if
   it already holds more), so fill up to that point, flush, and repeat:
   the same [Work] effects, at the same points, as [n] calls of [work 1]. *)
let work_units n =
  let r = Evlog.run () in
  if r.accounting && n > 0 then
    if r.acc + n < Costs.quantum then r.acc <- r.acc + n
    else begin
      let rem = ref n in
      while !rem > 0 do
        let take = if r.acc >= Costs.quantum then 1 else Int.min !rem (Costs.quantum - r.acc) in
        r.acc <- r.acc + take;
        rem := !rem - take;
        if r.acc >= Costs.quantum then flush_run r
      done
    end

(* Charge [n] and flush before a scheduling operation: one [Work] of
   everything pending, as [work n] followed by [flush ()] performs. *)
let charge_and_flush (r : Evlog.run) n =
  if r.accounting then r.acc <- r.acc + n;
  flush_run r

let wait ev =
  if Event.occurred ev then ()
  else begin
    let r = Evlog.run () in
    charge_and_flush r Costs.wait_check_cost;
    match r.mode with
    | Engine -> Effect.perform (Wait ev)
    | Direct ->
        raise
          (Deadlock_in_direct_mode
             (Format.asprintf "wait on unoccurred %a outside an engine" Event.pp ev))
  end

let signal ev =
  let r = Evlog.run () in
  charge_and_flush r Costs.signal_cost;
  match r.mode with
  | Engine -> Effect.perform (Signal ev)
  | Direct -> Event.mark ev

let spawn task =
  let r = Evlog.run () in
  charge_and_flush r Costs.spawn_cost;
  match r.mode with
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
