(* Per-scope symbol tables and the Doesn't-Know-Yet strategies.

   "We use a separate symbol table for each scope of declaration
   (definition module, main module, procedure).  These symbol tables are
   linked together to provide the correct scope ancestry path for
   resolving names." (paper §2.2)

   A table is *incomplete* while the parser/declaration-analyzer task of
   its stream is still entering symbols; [mark_complete] flips it and
   signals the scope's completion event (a handled event whose producer
   is that task).  A search from another stream that misses in an
   incomplete table faces the DKY problem; the four strategies of §2.2
   are all implemented here:

   - [Avoidance] never waits: the driver gates dependent tasks so that
     non-self tables are complete before they are searched.
   - [Pessimistic] waits for completion before searching any incomplete
     non-self table.
   - [Skeptical] (Figure 6, the paper's recommendation) searches the
     incomplete table first and waits only on a miss, paying a duplicate
     search when the wait ends.
   - [Optimistic] waits on a per-symbol event: a miss in an incomplete
     table installs a placeholder entry carrying an event; the entry is
     signaled when the real symbol arrives or swept when the table
     completes.
   - [Sequential] is the baseline compiler's rule: no waiting, a miss is
     a miss (the sequential processing order makes that sound).

   Visibility: declaration-time references (finite [use_off]) only see
   symbols declared at smaller textual offsets — Modula-2's
   declare-before-use — while statement analysis passes
   [use_off = max_int] and sees whole completed scopes.  Definition
   modules and builtins are fully visible at any offset.  A same-named
   symbol that exists but is not yet visible can never become visible
   later (offsets are fixed at declaration), so the search continues
   outward without waiting.

   Searching never holds the scope mutex across an engine operation:
   waits and signals happen strictly outside the critical sections. *)

open Mcc_sched
module Ls = Lookup_stats
module Evlog = Mcc_obs.Evlog
module Metrics = Mcc_obs.Metrics

type dky = Sequential | Avoidance | Pessimistic | Skeptical | Optimistic

let dky_name = function
  | Sequential -> "sequential"
  | Avoidance -> "avoidance"
  | Pessimistic -> "pessimistic"
  | Skeptical -> "skeptical"
  | Optimistic -> "optimistic"

let all_concurrent = [ Avoidance; Pessimistic; Skeptical; Optimistic ]

type kind = KBuiltin | KDef of string | KMain of string | KProc of string

type t = {
  sid : int;
  kind : kind;
  sname : string; (* [scope_name kind], cached so logging never allocates it *)
  parent : t option;
  tbl : (string, Symbol.t) Hashtbl.t;
  completion : Event.t;
  mutable complete : bool;
  mutable had_placeholders : bool; (* optimistic handling was used here *)
  mu : Mutex.t;
}

let next_sid = Atomic.make 0

let scope_name = function KBuiltin -> "<builtin>" | KDef m -> m ^ ".def" | KMain m -> m | KProc p -> p

let create ?parent kind =
  let sname = scope_name kind in
  {
    sid = Atomic.fetch_and_add next_sid 1;
    kind;
    sname;
    parent;
    tbl = Hashtbl.create 32;
    completion = Event.create ~kind:Event.Handled (sname ^ ".complete");
    complete = false;
    had_placeholders = false;
    mu = Mutex.create ();
  }

let is_complete t = t.complete
let completion_event t = t.completion
let set_producer t task_id = Event.set_producer t.completion task_id

(* Raw find, no stats, full visibility — for tests, tools and fixups. *)
let find_opt t name =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.tbl name with
    | Some s when not (Symbol.is_placeholder s) -> Some s
    | _ -> None
  in
  Mutex.unlock t.mu;
  r

let entries t =
  Mutex.lock t.mu;
  let r = Hashtbl.fold (fun _ s acc -> if Symbol.is_placeholder s then acc else s :: acc) t.tbl [] in
  Mutex.unlock t.mu;
  List.sort (fun (a : Symbol.t) b -> compare (a.def_off, a.sname) (b.def_off, b.sname)) r

(* Completing a table: flip the flag, signal the completion event, and
   sweep optimistic placeholders — "when the table is completed, it is
   traversed and all unsignaled events ... are signaled, allowing blocked
   tasks to continue searching" (§2.3.3).  (Defined before [enter] so the
   fault-injection hook there can reach it.) *)
let mark_complete t =
  Mutex.lock t.mu;
  let already = t.complete in
  t.complete <- true;
  let pending =
    Hashtbl.fold
      (fun _ s acc -> match s.Symbol.skind with Symbol.SPlaceholder ev -> ev :: acc | _ -> acc)
      t.tbl []
  in
  let entries_to_sweep = if t.had_placeholders then Hashtbl.length t.tbl else 0 in
  Mutex.unlock t.mu;
  if not already then begin
    if Evlog.enabled () then Evlog.emit (Evlog.Complete { scope = t.sid; scope_name = t.sname });
    if Metrics.enabled () then Metrics.incr "mcc_scope_complete_total";
    (* optimistic handling sweeps the whole table for unsignaled
       per-symbol events — the bookkeeping the paper found to outweigh
       the technique's advantages *)
    if entries_to_sweep > 0 then Eff.work (entries_to_sweep * Costs.sweep_entry);
    List.iter Eff.signal pending;
    Eff.signal t.completion
  end

(* Enter a new symbol.  Returns the placeholder's event to signal (the
   caller signals it outside the lock) when an optimistic placeholder is
   being replaced by the real declaration.

   The [Fault.early_complete] consultation is the deliberate
   early-publish bug for the happens-before analyzer: when an armed
   plan fires on this scope while it is incomplete but already holds a
   symbol, the scope completes prematurely, so this (and every later)
   entry publishes *after* completion — the violation [Hb] must catch.
   DES-only, like the log. *)
let enter t (sym : Symbol.t) =
  if
    Fault.armed ()
    && (not t.complete)
    && Hashtbl.length t.tbl > 0
    && Fault.early_complete ~scope:t.sname
  then mark_complete t;
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.tbl sym.sname with
    | Some existing when Symbol.is_placeholder existing -> (
        match existing.skind with
        | Symbol.SPlaceholder ev ->
            Hashtbl.replace t.tbl sym.sname sym;
            `Replaced_placeholder ev
        | _ -> assert false)
    | Some existing -> `Dup existing
    | None ->
        Hashtbl.replace t.tbl sym.sname sym;
        `Ok
  in
  Mutex.unlock t.mu;
  (match r with
  | `Dup _ -> ()
  | _ ->
      if Evlog.enabled () then
        Evlog.emit (Evlog.Publish { scope = t.sid; scope_name = t.sname; sym = sym.Symbol.sname }));
  (match r with `Replaced_placeholder ev -> Eff.signal ev | _ -> ());
  match r with `Dup e -> `Dup e | _ -> `Ok

(* Export / re-import of completed scopes (interface artifacts).

   [export] is just the deterministic entry list of a completed table;
   [import_export] bulk-enters previously exported symbols into a
   freshly interned scope.  Re-entry goes through [enter] so that any
   optimistic placeholder installed between interning and installation
   is replaced and signaled exactly as a real declaration would. *)
let export t =
  if not t.complete then invalid_arg ("Symtab.export: incomplete scope " ^ scope_name t.kind);
  entries t

let import_export t syms =
  List.iter (fun (s : Symbol.t) -> match enter t s with `Ok | `Dup _ -> ()) syms

(* ------------------------------------------------------------------ *)
(* Probing *)

type probe_result =
  | Found of Symbol.t
  | Found_placeholder of Event.t
  | Invisible (* the name exists here but is declared at a later offset *)
  | Absent

let visible t (sym : Symbol.t) ~use_off =
  match t.kind with
  | KBuiltin | KDef _ -> true
  | KMain _ | KProc _ -> sym.def_off < use_off

(* One probe of one scope.  Returns the result and the completeness
   observed at probe time (what Table 2's completeness column reports). *)
let probe stats t name ~use_off =
  Eff.work Costs.lookup_probe;
  Ls.record_probe stats;
  if Metrics.enabled () then Metrics.incr "mcc_symtab_probe_total";
  Mutex.lock t.mu;
  let compl = if t.complete then Ls.Complete else Ls.Incomplete in
  let r =
    match Hashtbl.find_opt t.tbl name with
    | None -> Absent
    | Some s -> (
        match s.Symbol.skind with
        | Symbol.SPlaceholder ev -> Found_placeholder ev
        | _ -> if visible t s ~use_off then Found s else Invisible)
  in
  Mutex.unlock t.mu;
  if Evlog.enabled () then (
    match r with
    | Found _ ->
        Evlog.emit
          (Evlog.Observe
             { scope = t.sid; scope_name = t.sname; sym = name; complete = compl = Ls.Complete })
    | Absent when compl = Ls.Complete ->
        Evlog.emit (Evlog.Auth_miss { scope = t.sid; scope_name = t.sname; sym = name })
    | _ -> ());
  (r, compl)

(* Install (or join) an optimistic placeholder for [name]; no-op if the
   table completed or the real symbol arrived in the meantime. *)
let placeholder_event t name =
  Mutex.lock t.mu;
  let r =
    if t.complete then None
    else
      match Hashtbl.find_opt t.tbl name with
      | Some s -> (
          match s.Symbol.skind with
          | Symbol.SPlaceholder ev -> Some ev
          | _ -> None (* real symbol arrived: re-probe *))
      | None ->
          let ev = Event.create ~kind:Event.Handled ("sym:" ^ name) in
          let ph = Symbol.make ~name ~def_off:(-1) (Symbol.SPlaceholder ev) in
          Hashtbl.replace t.tbl name ph;
          t.had_placeholders <- true;
          Some ev
  in
  Mutex.unlock t.mu;
  r

(* ------------------------------------------------------------------ *)
(* Lookup *)

(* The scope-class a successful hit is reported under: FROM-imported
   aliases count as "other" — the identifier really lives in an
   explicitly designated initial search scope (the exporting module). *)
let classify_hit ~cls (sym : Symbol.t) =
  match sym.alias_of with Some _ -> Ls.COther | None -> cls

(* Used-slice tracking for fine-grained invalidation: every name this
   compilation resolves against an imported interface is a dependency on
   that one exported declaration (a "slice"), and every name it fails to
   resolve there is a negative dependency (adding the declaration later
   must invalidate).  Both are recorded as (module, name) pairs; the
   build layer resolves them against artifact slice digests. *)
let record_slice_probe stats sc name =
  match sc.kind with KDef m -> Ls.record_use stats ~import:m ~name | _ -> ()

(* A hit on a FROM-imported alias resolved in the importer's own scope
   is equally a dependency on the exporting module's declaration. *)
let record_alias_use stats (sym : Symbol.t) =
  match sym.alias_of with
  | Some m -> Ls.record_use stats ~import:m ~name:sym.sname
  | None -> ()

(* A DKY wait, bracketed in the event log: the block record is written
   before the engine wait and the unblock right after, even when the
   event has already occurred — the pairing invariant the happens-before
   checker verifies. *)
let dky_wait sc name (ev : Event.t) =
  if Evlog.enabled () then
    Evlog.emit
      (Evlog.Dky_block { scope = sc.sid; scope_name = sc.sname; sym = name; ev = ev.Event.id });
  if Metrics.enabled () then
    Metrics.incr
      ~labels:
        [
          ( "scope_kind",
            match sc.kind with
            | KBuiltin -> "builtin"
            | KDef _ -> "def"
            | KMain _ -> "main"
            | KProc _ -> "proc" );
        ]
      "mcc_dky_block_total";
  Eff.wait ev;
  if Evlog.enabled () then
    Evlog.emit
      (Evlog.Dky_unblock { scope = sc.sid; scope_name = sc.sname; sym = name; ev = ev.Event.id })

(* Search one non-self scope under the given strategy.  [kind] tags the
   statistics rows; [first] marks whether a hit counts as "First try"
   (the initial scope of a qualified lookup) or "Search" (outward
   chaining).  Returns [Some sym] on a hit, [None] to continue outward. *)
let rec search_scope ~strategy ~stats ~kind ~use_off ~first sc name =
  record_slice_probe stats sc name;
  let record_hit ~found ~compl sym =
    Ls.record stats ~kind ~found ~scope:(classify_hit ~cls:(if first then Ls.COther else Ls.COuter) sym)
      ~compl;
    record_alias_use stats sym;
    Some sym
  in
  let first_found = if first then Ls.FirstTry else Ls.Search in
  match strategy with
  | Sequential | Avoidance -> (
      match probe stats sc name ~use_off with
      | Found sym, compl -> record_hit ~found:first_found ~compl sym
      | _ -> None)
  | Pessimistic -> (
      (* block and wait for table completion on *encountering* an
         incomplete table, before searching it *)
      if not (is_complete sc) then begin
        Ls.record_dky stats;
        dky_wait sc name sc.completion
      end;
      match probe stats sc name ~use_off with
      | Found sym, compl -> record_hit ~found:first_found ~compl sym
      | _ -> None)
  | Skeptical -> (
      (* Figure 6: record the completion state; search; on a miss in an
         initially incomplete table, wait and search again *)
      match probe stats sc name ~use_off with
      | Found sym, compl -> record_hit ~found:first_found ~compl sym
      | (Invisible | Found_placeholder _), _ -> None
      | Absent, Ls.Complete -> None
      | Absent, Ls.Incomplete -> (
          Ls.record_dky stats;
          dky_wait sc name sc.completion;
          Ls.record_duplicate stats;
          match probe stats sc name ~use_off with
          | Found sym, compl -> record_hit ~found:Ls.AfterDKY ~compl sym
          | _ -> None))
  | Optimistic -> (
      match probe stats sc name ~use_off with
      | Found sym, compl -> record_hit ~found:first_found ~compl sym
      | Invisible, _ -> None
      | Found_placeholder ev, compl ->
          if compl = Ls.Complete then None
          else begin
            Ls.record_dky stats;
            dky_wait sc name ev;
            retry_optimistic ~strategy ~stats ~kind ~use_off sc name
          end
      | Absent, Ls.Complete -> None
      | Absent, Ls.Incomplete -> (
          (* one DKY event per *symbol*: install a placeholder and wait
             on its event *)
          match placeholder_event sc name with
          | None -> search_scope ~strategy ~stats ~kind ~use_off ~first sc name
          | Some ev ->
              Eff.work Costs.placeholder_create;
              Ls.record_dky stats;
              dky_wait sc name ev;
              retry_optimistic ~strategy ~stats ~kind ~use_off sc name))

and retry_optimistic ~strategy ~stats ~kind ~use_off sc name =
  ignore strategy;
  Ls.record_duplicate stats;
  match probe stats sc name ~use_off with
  | Found sym, compl ->
      Ls.record stats ~kind ~found:Ls.AfterDKY ~scope:(classify_hit ~cls:Ls.COuter sym) ~compl;
      record_alias_use stats sym;
      Some sym
  | _ -> None (* placeholder swept: the symbol is not in this scope *)

(* Simple-identifier lookup, starting in [scope] (the searching stream's
   own scope).  The starting scope is probed without any DKY wait: the
   only task that searches a scope while that scope is incomplete is the
   scope's own parser/declaration analyzer, whose view is exactly the
   sequential compiler's.  Builtins are consulted immediately after the
   starting scope (§2.2), then the search chains outward. *)
let lookup ~strategy ~stats ~use_off ~scope name =
  record_slice_probe stats scope name;
  let self_hit =
    match probe stats scope name ~use_off with
    | Found sym, compl ->
        Ls.record stats ~kind:Ls.Simple ~found:Ls.FirstTry ~scope:(classify_hit ~cls:Ls.CSelf sym)
          ~compl;
        record_alias_use stats sym;
        Some sym
    | _ -> None
  in
  match self_hit with
  | Some _ -> self_hit
  | None -> (
      match Builtins.find name with
      | Some b ->
          Ls.record stats ~kind:Ls.Simple ~found:Ls.FirstTry ~scope:Ls.CBuiltin ~compl:Ls.Complete;
          Some b
      | None ->
          let rec up sc =
            match sc.parent with
            | None ->
                Ls.record_never stats ~kind:Ls.Simple;
                None
            | Some p -> (
                match search_scope ~strategy ~stats ~kind:Ls.Simple ~use_off ~first:false p name with
                | Some sym -> Some sym
                | None -> up p)
          in
          up scope)

(* Qualified-identifier lookup: [scope] is the explicitly designated
   module scope (M in M.x); there is no outward chaining.  Definition
   modules are fully visible, so [use_off] is immaterial. *)
let lookup_qualified ~strategy ~stats ~scope name =
  match search_scope ~strategy ~stats ~kind:Ls.Qualified ~use_off:max_int ~first:true scope name with
  | Some sym -> Some sym
  | None ->
      Ls.record_never stats ~kind:Ls.Qualified;
      None
