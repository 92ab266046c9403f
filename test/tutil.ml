(* Shared helpers for the test suite. *)

open Mcc_core

let store ?(defs = []) ?(impls = []) ~name src =
  Source_store.make ~impls ~main_name:name ~main_src:src ~defs ()

(* A minimal module wrapping [decls] and [body] statements. *)
let modsrc ?(name = "T") ?(imports = "") ~decls ~body () =
  Printf.sprintf "IMPLEMENTATION MODULE %s;\n%s\n%s\nBEGIN\n%s\nEND %s.\n" name imports decls body
    name

let compile_seq ?defs ?name:(n = "T") src = Seq_driver.compile (store ?defs ~name:n src)

let compile_conc ?(config = Driver.default_config) ?defs ?name:(n = "T") src =
  Driver.compile ~config (store ?defs ~name:n src)

(* [Driver.compile] over [cache], reading a graph of [store] as a build does. *)
let compile_cached ?config ?capture cache store =
  Driver.compile ?config ?capture ~cache:(Build_cache.graph cache store) store

let dis p = Mcc_codegen.Cunit.disassemble p

(* Compile sequentially and run in the VM; returns (output, status). *)
let run_seq ?defs ?name ?input src =
  let r = compile_seq ?defs ?name src in
  if not r.Seq_driver.ok then
    Alcotest.failf "compile errors:\n%s"
      (String.concat "\n" (List.map Mcc_m2.Diag.to_string r.Seq_driver.diags));
  let res = Mcc_vm.Vm.run ?input r.Seq_driver.program in
  (res.Mcc_vm.Vm.output, res.Mcc_vm.Vm.status)

(* Expect a clean run and return the output. *)
let output ?defs ?name ?input src =
  let out, status = run_seq ?defs ?name ?input src in
  (match status with
  | Mcc_vm.Vm.Finished | Mcc_vm.Vm.Halt_called -> ()
  | s -> Alcotest.failf "program did not finish: %s (output %S)" (Mcc_vm.Vm.status_to_string s) out);
  out

let diag_strings diags = List.map Mcc_m2.Diag.to_string diags

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Assert that compilation fails and some diagnostic contains [substr]. *)
let expect_error ?defs ?name src substr =
  let r = compile_seq ?defs ?name src in
  if r.Seq_driver.ok then Alcotest.failf "expected a compile error mentioning %S" substr;
  let msgs = diag_strings r.Seq_driver.diags in
  if not (List.exists (contains ~sub:substr) msgs) then
    Alcotest.failf "no diagnostic mentions %S; got:\n%s" substr (String.concat "\n" msgs)

let qtest = QCheck_alcotest.to_alcotest

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A path from the repository root: `dune runtest` runs a test one level
   below the root, `dune exec` from the root itself. *)
let repo_path path =
  match List.find_opt Sys.file_exists [ Filename.concat ".." path; path ] with
  | Some p -> p
  | None -> Alcotest.failf "%s not found next to the test directory" path

let corpus_dir = lazy (repo_path "corpus")

(* ------------------------------------------------------------------ *)
(* Parser-callback capture, for pretty round-trip fixpoint tests. *)

module A = Mcc_ast.Ast
module P = Mcc_parse.Parser

let dummy_ctx () =
  Mcc_sem.Ctx.make
    ~scope:(Mcc_sem.Symtab.create (Mcc_sem.Symtab.KMain "RT"))
    ~file:"rt" ~diags:(Mcc_m2.Diag.create ()) ~strategy:Mcc_sem.Symtab.Sequential
    ~stats:(Mcc_sem.Lookup_stats.create ()) ~registry:(Mcc_sem.Modreg.create ()) ~frame_key:"RT"
    ~path:"RT" ~is_module_level:true ~is_def:false

(* Parse statement text in a throwaway scope; returns the tree and any
   diagnostics. *)
let parse_stmts text =
  let ctx = dummy_ctx () in
  let cb =
    {
      P.cb_import = (fun _ _ -> None);
      cb_heading = (fun _ _ ~stream -> ignore stream);
      cb_body = (fun _ -> ());
    }
  in
  let p = P.create ~cb (Mcc_m2.Reader.of_lexer (Mcc_m2.Lexer.create ~file:"rt" text)) in
  let stmts = P.parse_statement_sequence ctx p in
  (stmts, Mcc_m2.Diag.sorted ctx.Mcc_sem.Ctx.diags)

(* Every statement body the parser produces for a store's main module,
   with its interfaces interned so imports resolve. *)
let bodies_of store =
  let captured = ref [] in
  let ctx = dummy_ctx () in
  let cb =
    {
      P.cb_import =
        (fun c (mid : A.ident) ->
          let scope, created = Mcc_sem.Modreg.intern c.Mcc_sem.Ctx.registry mid.A.name in
          if created then begin
            match Source_store.def_src store mid.A.name with
            | Some src ->
                let dctx = { ctx with Mcc_sem.Ctx.scope; path = mid.A.name; is_def = true } in
                let p2 =
                  P.create
                    ~cb:
                      {
                        P.cb_import = (fun _ _ -> None);
                        cb_heading = (fun _ _ ~stream -> ignore stream);
                        cb_body = (fun _ -> ());
                      }
                    (Mcc_m2.Reader.of_lexer (Mcc_m2.Lexer.create ~file:"d" src))
                in
                P.parse_def_module dctx p2 ~expected_name:mid.A.name
            | None -> Mcc_sem.Symtab.mark_complete scope
          end;
          Some scope);
      cb_heading = (fun _ _ ~stream -> ignore stream);
      cb_body = (fun gj -> captured := gj.P.gj_body :: !captured);
    }
  in
  let mctx = dummy_ctx () in
  let p =
    P.create ~cb (Mcc_m2.Reader.of_lexer (Mcc_m2.Lexer.create ~file:"m" (Source_store.main_src store)))
  in
  P.parse_impl_module mctx p ~expected_name:(Source_store.main_name store);
  !captured
