(* Fault injection sites.  Sites pull, the plan never pushes: the DES
   engine, the driver, the build cache, the symbol tables and the farm
   each ask the installed run's plan (Mcc_obs.Fault_plan, included
   here) whether a fault fires at their local identity.  Firing never
   charges [Eff.work]: only recovery costs virtual time. *)

include Mcc_obs.Fault_plan

let armed () = (Mcc_obs.Evlog.run ()).faults <> None
let fired () = match (Mcc_obs.Evlog.run ()).faults with Some p -> n_fired p | None -> 0

let fires ?(aux = "") kind name =
  match (Mcc_obs.Evlog.run ()).faults with None -> false | Some p -> consult p kind ~name ~aux
