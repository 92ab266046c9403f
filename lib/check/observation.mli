(** The canonical observation record: everything about a compilation the
    paper claims is schedule-, strategy- and processor-independent
    (§2.2–2.3), in a form two runs can be compared field by field.

    An observation deliberately excludes virtual timings, stream/task
    counts and robustness counters — those legitimately vary across the
    matrix; what must not vary is captured here: success, the sorted
    diagnostics, the object code (per-procedure digests so a divergence
    names the first differing unit), and — when the program is runnable
    — its VM behaviour including a digest of the final store. *)

type vm_obs = {
  v_status : string;
  v_output : string;
  v_steps : int;
  v_store : string;  (** {!Mcc_vm.Vm.result.store_digest} *)
}

type t = {
  ok : bool;
  diags : string list;  (** sorted diagnostic renderings *)
  unit_keys : string list;  (** code-unit keys, sorted *)
  unit_digests : (string * string) list;
      (** unit key -> MD5 of its canonical disassembly, key-sorted *)
  unit_sizes : int list;
      (** per-unit instruction counts, sorted — the name-independent
          object-code skeleton the alpha-rename relation compares *)
  program_digest : string;  (** MD5 of the whole linked disassembly *)
  vm : vm_obs option;  (** [None] unless runnable and [ok] *)
}

(** Observe a compiled program.  [run] executes it in the VM (with
    [input] and bounded fuel) when [ok]. *)
val make :
  ?input:int list ->
  run:bool ->
  ok:bool ->
  diags:Mcc_m2.Diag.d list ->
  Mcc_codegen.Cunit.program ->
  t

val of_seq : ?input:int list -> run:bool -> Mcc_core.Seq_driver.result -> t
val of_driver : ?input:int list -> run:bool -> Mcc_core.Driver.result -> t

(** First differing field between a reference observation and another:
    [(field, reference_value, actual_value)], values rendered and
    truncated for reporting.  [None] when equal.  Field names: [ok],
    [diags], [units], [unit:KEY], [program], [vm_status], [vm_output],
    [vm_steps], [vm_store], [vm_presence]. *)
val first_diff : reference:t -> t -> (string * string * string) option

(** Weakened comparison for name-changing morphs (alpha-rename):
    everything modulo names — success, diagnostic {e count}, unit
    count, the sorted multiset of per-unit instruction counts, and the
    VM status/output/steps (an alpha-rename cannot change behaviour; the store
    digest is excluded because procedure and exception values render
    their keys, which embed names). *)
val first_diff_modulo_names : reference:t -> t -> (string * string * string) option
