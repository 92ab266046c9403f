(* Spans recorded in memory around calls into each compiler layer.

   A span keeps its name, its parent (the span open when it started),
   its wall interval, the virtual work units the cost model charged
   inside it (direct-mode [Eff] totals) and the words allocated inside
   it.  A layer's self figure is its spans' totals minus what their
   child spans cover.  Bookkeeping is done outside each span's interval,
   so a child's overhead lands in its parent's self time. *)

module Eff = Mcc_sched.Eff

type span = {
  parent : int;  (** id of the enclosing span; -1 at top level *)
  name : string;
  secs : float;
  units : float;
  words : float;
}

type t = { spans : (int, span) Hashtbl.t; mutable next : int; mutable stack : int list }

let create () = { spans = Hashtbl.create 1024; next = 0; stack = [] }

let units_now () =
  Eff.flush ();
  Eff.get_direct_total ()

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let u0 = units_now () in
  let w0 = Timing.alloc_words () in
  let t0 = Timing.now () in
  let finish () =
    let t1 = Timing.now () in
    let w1 = Timing.alloc_words () in
    let u1 = units_now () in
    t.stack <- List.tl t.stack;
    Hashtbl.replace t.spans id { parent; name; secs = t1 -. t0; units = u1 -. u0; words = w1 -. w0 }
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

type self = { calls : int; self_secs : float; self_units : float; self_words : float }

(* Self totals per span name. *)
let self_by_name t : (string * self) list =
  let covered = Hashtbl.create 256 in
  Hashtbl.iter
    (fun _ s ->
      if s.parent >= 0 then begin
        let secs, units, words =
          Option.value (Hashtbl.find_opt covered s.parent) ~default:(0.0, 0.0, 0.0)
        in
        Hashtbl.replace covered s.parent (secs +. s.secs, units +. s.units, words +. s.words)
      end)
    t.spans;
  let acc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id s ->
      let csecs, cunits, cwords =
        Option.value (Hashtbl.find_opt covered id) ~default:(0.0, 0.0, 0.0)
      in
      let prev =
        Option.value (Hashtbl.find_opt acc s.name)
          ~default:{ calls = 0; self_secs = 0.0; self_units = 0.0; self_words = 0.0 }
      in
      Hashtbl.replace acc s.name
        {
          calls = prev.calls + 1;
          self_secs = prev.self_secs +. s.secs -. csecs;
          self_units = prev.self_units +. s.units -. cunits;
          self_words = prev.self_words +. s.words -. cwords;
        })
    t.spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare
