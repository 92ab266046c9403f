(* One simulated build-farm node: its own warm interface cache, its own
   processor budget, and the liveness/progress bookkeeping the
   coordinator reads.  The compile work itself runs through the inner
   DES ([Driver.compile] in its own context); the node record just
   anchors the per-node state between agenda events. *)

type t = {
  id : int;
  cache : Mcc_core.Build_cache.t;
  mutable alive : bool;
  mutable slow : bool; (* gray failure: serves and compiles slowly *)
  mutable busy_until : float; (* virtual seconds; <= now means idle *)
  mutable gen : int; (* bumped on crash: stale Done events are ignored *)
  mutable last_beat : float; (* last heartbeat the coordinator saw *)
  mutable tasks_run : int;
  mutable tasks_stolen : int; (* tasks this node stole from peers *)
  mutable busy_seconds : float;
  mutable fetches : int;
  mutable serves : int;
}

let create id =
  {
    id;
    cache = Mcc_core.Build_cache.create ();
    alive = true;
    slow = false;
    busy_until = 0.0;
    gen = 0;
    last_beat = 0.0;
    tasks_run = 0;
    tasks_stolen = 0;
    busy_seconds = 0.0;
    fetches = 0;
    serves = 0;
  }

let name t = Printf.sprintf "node%d" t.id

let crash t =
  t.alive <- false;
  t.gen <- t.gen + 1
