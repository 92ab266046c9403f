(* Deterministic, seeded fault plans (the robustness layer's input);
   the sites that consult them are Mcc_sched.Fault.

   A fault *plan* is a pure function of (seed, spec list): every decision
   to fire is derived from a splitmix64 hash of the seed, the spec index
   and a per-spec occurrence counter, so the same plan replayed against
   the same deterministic schedule injects the same faults at the same
   points — which is what lets the recovery tests demand byte-identical
   output and identical robustness counters across repeated runs.

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

let n_fired p = p.n_fired

(* ------------------------------------------------------------------ *)
(* Wire format, for shipping a plan to a farm node.

   A shipped plan is the *schedule* — (seed, specs) — never the sender's
   replay state: occurrence counters and pinned victims stay behind, so
   a plan serialized mid-replay fires at the same points on the
   receiving node as a pristine replay of the same schedule (the
   round-trip property in test_farm.ml pins this down).  The bytes are
   three newline-terminated lines of printable ASCII — the version, the
   seed, the comma-separated [spec_to_string] list — read back with
   [parse_list], never with [Marshal].  A truncated copy has lost its
   last newline and a byte outside printable ASCII cannot occur, so
   both are rejected; a change that keeps every line well-formed reads
   back as a different, valid plan. *)

let wire_version = "mcc-fault-plan-v2"

let to_bytes p =
  Printf.sprintf "%s\n%d\n%s\n" wire_version p.seed
    (String.concat "," (Array.to_list (Array.map spec_to_string p.specs)))

let of_bytes s =
  let bad fmt = Printf.ksprintf (fun m -> invalid_arg ("Fault.of_bytes: " ^ m)) fmt in
  if not (String.for_all (fun c -> c = '\n' || (c >= ' ' && c <= '~')) s) then
    bad "not a serialized fault plan";
  match String.split_on_char '\n' s with
  | [ v; seed; specs; "" ] ->
      if v <> wire_version then bad "wire version %S, expected %S" v wire_version;
      let seed =
        match int_of_string_opt seed with
        | Some n when string_of_int n = seed -> n
        | _ -> bad "bad seed %S" seed
      in
      plan ~seed (parse_list specs)
  | _ -> bad "not a serialized fault plan"

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
