(* Code units and linked programs.

   "It is a straightforward exercise to generate code for each procedure
   separately and to merge this code using simple concatenation ...
   Because the unit of merging is the code for an entire procedure, this
   concatenation can be done in any order and concurrently with other
   compiler activity." (paper §2.1, §3)

   A [t] is the code for one procedure (or for a module body, the
   program's entry unit).  The merge task accumulates units as streams
   finish; [link] builds the final program.  Unit keys are derived from
   scope paths ("M", "M.P", "M.P.Q"), which makes program assembly — and
   hence compiler output — independent of the order in which streams
   completed, a property the test suite verifies. *)

open Mcc_util
module Evlog = Mcc_obs.Evlog

type t = {
  u_key : string;
  u_nparams : int;
  u_nslots : int; (* params + locals + compiler temporaries *)
  u_locals : (int * Tydesc.t) list; (* slot -> default-shape descriptor *)
  u_code : Instr.t array;
}

type program = {
  p_entry : string; (* the main module's body unit *)
  p_init : string list;
      (* module body units in initialization order (imported modules
         before their importers; [p_entry] last) *)
  p_units : (string, t) Hashtbl.t;
  p_frames : (string * (int * Tydesc.t) list * int) list;
      (* global frames: key, slot descriptors, size — sorted by key *)
}

let unit_keys p =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) p.p_units [])

let find_unit p key = Hashtbl.find_opt p.p_units key

(* Link a collection of units into a program.  Arrival order is
   irrelevant; duplicate keys indicate a compiler bug and are rejected. *)
let link ?init ~entry ~frames units =
  let tbl = Hashtbl.create (List.length units) in
  List.iter
    (fun u ->
      if Hashtbl.mem tbl u.u_key then invalid_arg ("Cunit.link: duplicate unit " ^ u.u_key);
      Hashtbl.replace tbl u.u_key u)
    units;
  {
    p_entry = entry;
    p_init = Option.value init ~default:[ entry ];
    p_units = tbl;
    p_frames = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) frames;
  }

(* Canonical disassembly: used to compare compiler outputs across
   schedules, strategies and engines. *)
let disassemble_unit u =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "unit %s params=%d slots=%d\n" u.u_key u.u_nparams u.u_nslots);
  List.iter
    (fun (slot, d) -> Buffer.add_string buf (Printf.sprintf "  .local %d %s\n" slot (Tydesc.to_string d)))
    u.u_locals;
  Array.iteri
    (fun i ins -> Buffer.add_string buf (Printf.sprintf "  %4d: %s\n" i (Instr.to_string ins)))
    u.u_code;
  Buffer.contents buf

let disassemble p =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "entry %s\n" p.p_entry);
  if p.p_init <> [ p.p_entry ] then
    Buffer.add_string buf (Printf.sprintf "init %s\n" (String.concat " " p.p_init));
  List.iter
    (fun (key, slots, size) ->
      Buffer.add_string buf (Printf.sprintf "frame %s size=%d\n" key size);
      List.iter
        (fun (slot, d) ->
          Buffer.add_string buf (Printf.sprintf "  .global %d %s\n" slot (Tydesc.to_string d)))
        slots)
    p.p_frames;
  List.iter
    (fun key ->
      match find_unit p key with
      | Some u -> Buffer.add_string buf (disassemble_unit u)
      | None -> ())
    (unit_keys p);
  Buffer.contents buf

let total_instrs p = Hashtbl.fold (fun _ u acc -> acc + Array.length u.u_code) p.p_units 0

(* ------------------------------------------------------------------ *)
(* The merge accumulator used by the Merge task: units arrive from
   code-generation tasks in schedule order; [finish] links. *)

type merger = {
  mu : Mutex.t;
  units : t Vec.t;
  mutable frames : (string * (int * Tydesc.t) list * int) list;
}

let dummy_unit = { u_key = ""; u_nparams = 0; u_nslots = 0; u_locals = []; u_code = [||] }

let merger () = { mu = Mutex.create (); units = Vec.create dummy_unit; frames = [] }

let add_unit m u =
  Mcc_sched.Eff.work Mcc_sched.Costs.merge_unit;
  Mutex.lock m.mu;
  Vec.push m.units u;
  Mutex.unlock m.mu

let add_frame m key slots size =
  if Evlog.enabled () then Evlog.emit (Evlog.Frame_add { key });
  Mutex.lock m.mu;
  m.frames <- (key, slots, size) :: m.frames;
  Mutex.unlock m.mu

let unit_count m =
  Mutex.lock m.mu;
  let n = Vec.length m.units in
  Mutex.unlock m.mu;
  n

let finish m ~entry =
  Mutex.lock m.mu;
  let units = Vec.to_list m.units in
  let frames = m.frames in
  Mutex.unlock m.mu;
  link ~entry ~frames units
