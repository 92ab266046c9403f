(* The Supervisor — task queuing and selection (paper §2.3.2, §2.3.4).

   "We initiate one compiler process (Worker) for each real hardware
   processor.  These workers are managed by a supervisor which oversees
   the assignment of tasks to workers."

   The ready list is a priority queue over the task classes of
   [Task.cls_priority]; within the two code-generation classes the
   largest task is selected first ("Code is generated for long procedures
   before short ones to avoid a long sequential tail").  Tasks gated on
   an avoided event are parked until the event occurs.  When a running
   task blocks on a handled event, [prefer] moves the event's producer
   task (if still pending) to the front of its class so that "the task
   whose execution will lead toward the event occurring" runs next.

   The Supervisor is engine-neutral: both engines reach it through
   their shared step interpreter ([Interp]).  The DES engine calls it
   from a single thread; the domain engine serializes access with an
   external mutex. *)

open Mcc_util
module Evlog = Mcc_obs.Evlog
module Metrics = Mcc_obs.Metrics

type entry = Fresh of Task.t | Resumed of Task.t * Eff.resumption

let entry_task = function Fresh t -> t | Resumed (t, _) -> t

type t = {
  classes : entry Deque.t array;
  gated : (int, Task.t list) Hashtbl.t; (* event id -> parked tasks *)
  mutable n_ready : int;
  mutable n_gated : int;
  fifo : bool;
      (* ablation: ignore class priorities and size ordering, treating
         the ready list as one FIFO queue (gating still applies) *)
  perturb : Prng.t option;
      (* schedule exploration: when set, [pick] selects uniformly at
         random within the highest-priority non-empty class instead of
         using FIFO/longest-first tie-breaking.  Any entry of that class
         is a legal choice, so every perturbed run is a schedule the
         Supervisor could have produced; compiler output must not depend
         on which one (the analyzer asserts it doesn't). *)
}

let create ?(fifo = false) ?perturb () =
  let dummy = Fresh (Task.create ~cls:Task.Aux ~name:"dummy" (fun () -> ())) in
  {
    classes = Array.init Task.n_classes (fun _ -> Deque.create dummy);
    gated = Hashtbl.create 64;
    n_ready = 0;
    n_gated = 0;
    fifo;
    perturb;
  }

let n_ready t = t.n_ready
let n_gated t = t.n_gated

let enqueue_ready t entry =
  let task = entry_task entry in
  let q =
    if t.fifo then t.classes.(0) else t.classes.(Task.cls_priority task.Task.cls)
  in
  (match entry with
  | Resumed _ ->
      (* a resumed task was already in flight: let it finish ahead of
         fresh work of the same class *)
      Deque.push_front q entry
  | Fresh _ -> Deque.push_back q entry);
  t.n_ready <- t.n_ready + 1

(* Submit a fresh task.  If it is gated on an unoccurred avoided event it
   is parked; otherwise it becomes ready. *)
let submit t task =
  if Metrics.enabled () then begin
    Metrics.incr ~labels:[ ("cls", Task.cls_name task.Task.cls) ] "mcc_sup_submit_total";
    Metrics.gauge_max "mcc_sup_ready_peak" (float_of_int (t.n_ready + 1))
  end;
  match task.Task.gate with
  | Some ev when not (Event.occurred ev) ->
      let parked = Option.value ~default:[] (Hashtbl.find_opt t.gated ev.Event.id) in
      Hashtbl.replace t.gated ev.Event.id (task :: parked);
      t.n_gated <- t.n_gated + 1
  | _ -> enqueue_ready t (Fresh task)

(* A previously blocked task becomes runnable again. *)
let resume t task k = enqueue_ready t (Resumed (task, k))

(* An event occurred: release tasks gated on it. *)
let on_event t (ev : Event.t) =
  match Hashtbl.find_opt t.gated ev.Event.id with
  | None -> ()
  | Some parked ->
      Hashtbl.remove t.gated ev.Event.id;
      t.n_gated <- t.n_gated - List.length parked;
      (* parked lists are built by consing; reverse to preserve
         submission order *)
      List.iter
        (fun (task : Task.t) ->
          if Evlog.enabled () then
            Evlog.emit (Evlog.Gate_release { ev = ev.Event.id; task = task.Task.id });
          enqueue_ready t (Fresh task))
        (List.rev parked)

(* Move the pending task [task_id] to the front of its class queue: a
   blocked task is waiting for it (paper §2.3.4). *)
let prefer t task_id =
  if task_id >= 0 then
    Array.iter
      (fun q ->
        match Deque.remove_first q (fun e -> (entry_task e).Task.id = task_id) with
        | Some e ->
            if Metrics.enabled () then Metrics.incr "mcc_sup_prefer_promote_total";
            Deque.push_front q e
        | None -> ())
      t.classes

(* Select the next entry to run: scan classes in priority order; within
   the code-generation classes take the entry with the largest size hint
   (longest procedure first). *)
let pick t =
  let rec scan i =
    if i >= Task.n_classes then None
    else begin
      let q = t.classes.(i) in
      if Deque.is_empty q then scan (i + 1)
      else begin
        let by_size =
          (not t.fifo)
          && (i = Task.cls_priority Task.LongGen || i = Task.cls_priority Task.ShortGen)
        in
        let entry =
          match t.perturb with
          | Some rng when Deque.length q > 1 ->
              let idx = Prng.int rng (Deque.length q) in
              let j = ref 0 in
              let chosen = ref None in
              Deque.iter
                (fun e ->
                  if !j = idx then chosen := Some e;
                  incr j)
                q;
              (match !chosen with
              | Some e ->
                  ignore (Deque.remove_first q (fun e' -> e' == e));
                  Some e
              | None -> Deque.pop_front q)
          | _ ->
          if by_size then begin
            let best = ref None in
            Deque.iter
              (fun e ->
                let sz = (entry_task e).Task.size_hint in
                match !best with
                | Some (bsz, _) when bsz >= sz -> ()
                | _ -> best := Some (sz, e))
              q;
            match !best with
            | Some (_, e) ->
                ignore (Deque.remove_first q (fun e' -> e' == e));
                Some e
            | None -> None
          end
          else Deque.pop_front q
        in
        match entry with
        | Some e ->
            t.n_ready <- t.n_ready - 1;
            Some e
        | None -> scan (i + 1)
      end
    end
  in
  scan 0

(* Names of events whose gated tasks are still parked — used in deadlock
   diagnostics. *)
let gated_events t =
  Hashtbl.fold (fun id tasks acc -> (id, List.map (fun (t : Task.t) -> t.name) tasks) :: acc) t.gated []
