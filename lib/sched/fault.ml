(* Deterministic, seeded fault injection (the robustness layer's input).

   A fault *plan* is a pure function of (seed, spec list): every decision
   to fire is derived from a splitmix64 hash of the seed, the spec index
   and a per-spec occurrence counter, so the same plan replayed against
   the same deterministic schedule injects the same faults at the same
   points — which is what lets the recovery tests demand byte-identical
   output and identical robustness counters across repeated runs.

   Injection sites pull, the plan never pushes: the DES engine, the
   driver, the build cache and the symbol tables each ask "does a fault
   fire here?" at their own site, passing the local identity (task name
   and class, event name, module name, scope name).  A site consults the
   plan only when one is armed, so the fault-free path costs one ref
   read.  Firing never charges [Eff.work]: faults are free to inject,
   only *recovery* costs virtual time.

   Spec grammar (comma-separated on the CLI):

     kind[:target][@k][%pct][!]

   - [kind] one of task-crash, dropped-wake, stall, corrupt-artifact,
     source-error, poison-import, early-complete;
   - [:target] restricts matching to identities containing the string
     (or, for task faults, whose class name equals it);
   - [@k] fires at the k-th matching occurrence exactly (default: a
     seed-derived k in 1..8, so different seeds hit different points);
   - [%pct] fires each matching occurrence with the given percent
     chance, hashed from the seed (mutually exclusive with [@k]);
   - [!] permanent: the first victim is pinned by name and every later
     occurrence of that same victim fires too — retries keep failing,
     which is how quarantine paths are exercised. *)

type kind =
  | Task_crash
  | Dropped_wake
  | Stall
  | Corrupt_artifact
  | Source_error
  | Poison_import
  | Early_complete
  | Node_crash
  | Node_slow
  | Msg_drop
  | Partition

exception Injected of string

type spec = {
  kind : kind;
  target : string option;
  at : int option; (* fire at exactly the k-th matching occurrence *)
  rate : int option; (* percent chance per matching occurrence *)
  permanent : bool;
}

let kind_name = function
  | Task_crash -> "task-crash"
  | Dropped_wake -> "dropped-wake"
  | Stall -> "stall"
  | Corrupt_artifact -> "corrupt-artifact"
  | Source_error -> "source-error"
  | Poison_import -> "poison-import"
  | Early_complete -> "early-complete"
  | Node_crash -> "node-crash"
  | Node_slow -> "node-slow"
  | Msg_drop -> "msg-drop"
  | Partition -> "partition"

let kind_of_name = function
  | "task-crash" -> Some Task_crash
  | "dropped-wake" -> Some Dropped_wake
  | "stall" -> Some Stall
  | "corrupt-artifact" -> Some Corrupt_artifact
  | "source-error" -> Some Source_error
  | "poison-import" -> Some Poison_import
  | "early-complete" -> Some Early_complete
  | "node-crash" -> Some Node_crash
  | "node-slow" -> Some Node_slow
  | "msg-drop" | "message-drop" -> Some Msg_drop
  | "partition" -> Some Partition
  | _ -> None

let all_kinds =
  [
    Task_crash; Dropped_wake; Stall; Corrupt_artifact; Source_error; Poison_import; Early_complete;
    Node_crash; Node_slow; Msg_drop; Partition;
  ]

let spec_to_string s =
  Printf.sprintf "%s%s%s%s%s" (kind_name s.kind)
    (match s.target with Some t -> ":" ^ t | None -> "")
    (match s.at with Some k -> Printf.sprintf "@%d" k | None -> "")
    (match s.rate with Some p -> Printf.sprintf "%%%d" p | None -> "")
    (if s.permanent then "!" else "")

let parse str =
  let s = String.trim str in
  let bad fmt = Printf.ksprintf (fun m -> invalid_arg ("Fault.parse: " ^ m ^ " in " ^ str)) fmt in
  let permanent, s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = '!' then (true, String.sub s 0 (n - 1)) else (false, s)
  in
  let cut c str =
    match String.index_opt str c with
    | None -> (str, None)
    | Some i -> (String.sub str 0 i, Some (String.sub str (i + 1) (String.length str - i - 1)))
  in
  let before_pct, pct = cut '%' s in
  let before_at, at = cut '@' before_pct in
  let kind_str, target = cut ':' before_at in
  let kind =
    match kind_of_name kind_str with Some k -> k | None -> bad "unknown fault kind %S" kind_str
  in
  let posint what = function
    | None -> None
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> Some n
        | _ -> bad "bad %s %S" what v)
  in
  let at = posint "occurrence" at in
  let rate = posint "rate" pct in
  (match rate with
  | Some p when p > 100 -> bad "rate %d%% out of range" p
  | _ -> ());
  if at <> None && rate <> None then bad "@k and %%pct are mutually exclusive";
  (match target with Some "" -> bad "empty target" | _ -> ());
  { kind; target; at; rate; permanent }

let parse_list str =
  String.split_on_char ',' str
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map parse

(* ------------------------------------------------------------------ *)
(* Seed-derived decisions: splitmix64 finalizer over (seed, spec index,
   occurrence).  Pure — no global PRNG state to perturb or be perturbed
   by anything else. *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  logxor z (shift_right_logical z 33)

let hash3 seed idx n =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
      (Int64.of_int ((idx * 0x85ebca6b) + n))
  in
  Int64.to_int (Int64.logand (mix64 z) 0x7fffffffL)

type plan = {
  seed : int;
  specs : spec array;
  occ : int array; (* matching occurrences seen, per spec *)
  victims : string option array; (* pinned victim of a permanent spec *)
  mutable n_fired : int;
}

let plan ?(seed = 0) specs =
  let specs = Array.of_list specs in
  {
    seed;
    specs;
    occ = Array.make (Array.length specs) 0;
    victims = Array.make (Array.length specs) None;
    n_fired = 0;
  }

let reset p =
  Array.fill p.occ 0 (Array.length p.occ) 0;
  Array.fill p.victims 0 (Array.length p.victims) None;
  p.n_fired <- 0

let specs p = Array.to_list p.specs
let plan_seed p = p.seed

(* ------------------------------------------------------------------ *)
(* Wire format, for shipping a plan to a farm node.

   A shipped plan is the *schedule* — (seed, specs) — never the sender's
   replay state: marshaling the whole record would leak the
   coordinator's occurrence counters and pinned victims into the copy,
   so a plan serialized mid-replay would fire at different points on the
   receiving node than a pristine replay of the same schedule (the
   nondeterminism the round-trip property in test_farm.ml pins down).
   [of_bytes] therefore always reconstructs a fresh plan. *)

let wire_version = "mcc-fault-plan-v1"

let to_bytes p = Marshal.to_string (wire_version, p.seed, p.specs) []

let of_bytes s =
  match (Marshal.from_string s 0 : string * int * spec array) with
  | v, _, _ when v <> wire_version ->
      invalid_arg (Printf.sprintf "Fault.of_bytes: wire version %S, expected %S" v wire_version)
  | _, seed, specs -> plan ~seed (Array.to_list specs)
  | exception _ -> invalid_arg "Fault.of_bytes: not a serialized fault plan"

(* The armed plan.  Single-threaded by construction: faults are a DES /
   sequential-path facility (like [Evlog]); the domain engine never arms
   one. *)
let current : plan option ref = ref None

let armed () = !current <> None
let fired () = match !current with Some p -> p.n_fired | None -> 0

let with_plan p f =
  let saved = !current in
  current := Some p;
  Fun.protect ~finally:(fun () -> current := saved) f

(* ------------------------------------------------------------------ *)
(* Site consultation. *)

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  lb = 0
  ||
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let matches spec ~name ~aux =
  match spec.target with None -> true | Some t -> t = aux || contains ~sub:t name

(* Default firing point when neither [@k] nor [%pct] was given: a
   seed-derived occurrence in 1..8. *)
let default_k p i = 1 + (hash3 p.seed i 0 mod 8)

let consult p kind ~name ~aux =
  let hit = ref false in
  Array.iteri
    (fun i spec ->
      if spec.kind = kind && not !hit then
        match p.victims.(i) with
        | Some v ->
            (* permanent and pinned: the victim keeps failing, nobody
               else is touched and occurrences stop counting *)
            if v = name then hit := true
        | None ->
            if matches spec ~name ~aux then begin
              p.occ.(i) <- p.occ.(i) + 1;
              let n = p.occ.(i) in
              let fire =
                match (spec.at, spec.rate) with
                | Some k, _ -> n = k
                | None, Some r -> hash3 p.seed i n mod 100 < r
                | None, None -> n = default_k p i
              in
              if fire then begin
                hit := true;
                if spec.permanent then p.victims.(i) <- Some name
              end
            end)
    p.specs;
  if !hit then p.n_fired <- p.n_fired + 1;
  !hit

let fire kind ~name ~aux = match !current with None -> false | Some p -> consult p kind ~name ~aux
let crash ~name ~cls = fire Task_crash ~name ~aux:cls
let stall ~name ~cls = fire Stall ~name ~aux:cls
let drop_wake ~ev = fire Dropped_wake ~name:ev ~aux:""
let corrupt_artifact ~name = fire Corrupt_artifact ~name ~aux:""
let source_error ~name = fire Source_error ~name ~aux:""
let poison_import ~name = fire Poison_import ~name ~aux:""
let early_complete ~scope = fire Early_complete ~name:scope ~aux:""

(* Farm sites (Mcc_farm): consulted by the multi-node coordinator.
   [node_crash]/[node_slow] pass the node identity ("node2");
   [msg_drop] the RPC link ("node1->node3:IfaceName"); [partition] a
   per-heartbeat network identity. *)
let node_crash ~name = fire Node_crash ~name ~aux:""
let node_slow ~name = fire Node_slow ~name ~aux:""
let msg_drop ~link = fire Msg_drop ~name:link ~aux:""
let partition ~name = fire Partition ~name ~aux:""
