(* The Splitter and Importer task bodies (paper §3).

   "The splitter task searches for the reserved word PROCEDURE in the
   token stream of M.mod.  It creates a new stream for each procedure it
   detects and diverts the lexical tokens for the procedure to that
   stream. ...  The main module body which has now been stripped of all
   embedded streams is processed through syntax analysis, semantic
   analysis and code generation."

   The splitter is the finite-state recognizer that the reserved-word
   restriction makes possible (paper §2.1): it tracks only parenthesis
   depth (to find the end of a heading — parameter sections contain
   semicolons) and END-nesting depth (to find the end of a body), plus a
   single token of lookahead to distinguish a procedure declaration
   (PROCEDURE followed by an identifier) from a procedure *type*
   (PROCEDURE followed by '(' , ';' , ')' ...).

   Procedure heading tokens are sent to *both* the parent stream (which
   performs the heading's semantic analysis, §2.4 alternative 1) and the
   child stream; the parent additionally receives a [SplitMark] carrying
   the child stream id.  Nested procedures recurse: the child stream
   plays the parent for its own nested streams.

   "The import task searches the token stream for IMPORT declarations
   and starts a new stream for each imported definition module that it
   discovers."  Imports must precede declarations, so the scan stops at
   the first declaration keyword. *)

open Mcc_m2
open Mcc_sched
module D = Mcc_sem.Declare
module Symtab = Mcc_sem.Symtab

type proc_stream = {
  ps_id : int;
  ps_name : string; (* the procedure's identifier *)
  ps_path : string; (* scope path, e.g. "M.P.Q" *)
  ps_q : Tokq.t;
  ps_scope : Symtab.t;
  ps_gate : Event.t; (* avoided event: heading processed in the parent scope *)
  ps_depth : int; (* procedure nesting depth, 1 = top level *)
  ps_redeclared : bool; (* an earlier stream has this path *)
  mutable ps_heading : D.heading_info option; (* set by the parent parser *)
}

(* Reserved words that open a construct terminated by END. *)
let opens_end = function
  | Token.IF | Token.CASE | Token.WHILE | Token.FOR | Token.WITH | Token.LOOP | Token.RECORD
  | Token.TRY | Token.LOCK | Token.MODULE ->
      true
  | _ -> false

let next_tok rd =
  Eff.work Costs.split_token;
  Reader.next rd

(* Run the splitter over [rd] (the main module's raw token stream),
   passing non-procedure tokens through to [out] and creating a stream
   per procedure.  [on_stream] is called as soon as a stream is created,
   before any of its body tokens arrive, so the driver can spawn its
   parser task immediately (gated on the heading event). *)
let run_splitter ~rd ~out ~root_scope ~root_path ~next_id ~on_stream =
  (* Copy heading tokens (PROCEDURE .. ';' at paren depth 0) to both
     queues.  The PROCEDURE token itself has already been consumed. *)
  let copy_heading ~proc_tok ~to_parent ~to_child =
    Tokq.put to_parent proc_tok;
    Tokq.put to_child proc_tok;
    let paren = ref 0 in
    let fin = ref false in
    while not !fin do
      let tok = next_tok rd in
      Tokq.put to_parent tok;
      Tokq.put to_child tok;
      (match tok.Token.kind with
      | Token.Sym Token.Lparen -> incr paren
      | Token.Sym Token.Rparen -> decr paren
      | Token.Sym Token.Semi when !paren = 0 -> fin := true
      | Token.Eof -> fin := true
      | _ -> ())
    done
  in
  (* paths split so far: the first declaration of a path owns its code *)
  let split = Hashtbl.create 16 in
  let rec extract_proc ~parent_q ~parent_scope ~parent_path ~depth ~proc_tok =
    let name =
      match (Reader.peek rd).Token.kind with Token.Ident n -> n | _ -> "<anonymous>"
    in
    let id = next_id () in
    let path = parent_path ^ "." ^ name in
    let redeclared = Hashtbl.mem split path in
    Hashtbl.replace split path ();
    let ps =
      {
        ps_id = id;
        ps_name = name;
        ps_path = path;
        ps_q = Tokq.sibling out ~name:("proc:" ^ path);
        ps_scope = Symtab.create ~parent:parent_scope (Symtab.KProc path);
        ps_gate = Event.create ~kind:Event.Avoided ("heading:" ^ path);
        ps_depth = depth;
        ps_redeclared = redeclared;
        ps_heading = None;
      }
    in
    (* register the stream before any token that names it can reach a
       consumer: the parent parser must be able to resolve the SplitMark *)
    on_stream ps;
    copy_heading ~proc_tok ~to_parent:parent_q ~to_child:ps.ps_q;
    Tokq.put parent_q (Token.make (Token.SplitMark id) proc_tok.Token.loc);
    (* body: divert everything up to the matching END <name> ';' *)
    let end_depth = ref 1 in
    let fin = ref false in
    while not !fin do
      let tok = next_tok rd in
      match tok.Token.kind with
      | Token.Eof ->
          (* malformed source: the parser of this stream will report it *)
          fin := true
      | Token.Kw Token.PROCEDURE when Token.is_ident (Reader.peek rd) ->
          extract_proc ~parent_q:ps.ps_q ~parent_scope:ps.ps_scope ~parent_path:path
            ~depth:(depth + 1) ~proc_tok:tok
      | Token.Kw k when opens_end k ->
          incr end_depth;
          Tokq.put ps.ps_q tok
      | Token.Kw Token.END ->
          decr end_depth;
          Tokq.put ps.ps_q tok;
          if !end_depth = 0 then begin
            (* END <name> ';' *)
            (if Token.is_ident (Reader.peek rd) then
               let nm = next_tok rd in
               Tokq.put ps.ps_q nm);
            (if Token.is_sym (Reader.peek rd) Token.Semi then
               let semi = next_tok rd in
               Tokq.put ps.ps_q semi);
            fin := true
          end
      | _ -> Tokq.put ps.ps_q tok
    done;
    Tokq.close ps.ps_q
  in
  let fin = ref false in
  while not !fin do
    let tok = next_tok rd in
    match tok.Token.kind with
    | Token.Eof ->
        Tokq.put out tok |> ignore;
        fin := true
    | Token.Kw Token.PROCEDURE when Token.is_ident (Reader.peek rd) ->
        extract_proc ~parent_q:out ~parent_scope:root_scope ~parent_path:root_path ~depth:1
          ~proc_tok:tok
    | _ -> Tokq.put out tok
  done;
  Tokq.close out

(* Scan a token stream for IMPORT declarations, reporting each imported
   module name exactly once per importer run (the once-only table is the
   caller's, shared across all importer tasks). *)
let run_importer ~rd ~on_import =
  let next () =
    Eff.work Costs.import_token;
    Reader.next rd
  in
  let fin = ref false in
  while not !fin do
    let tok = next () in
    match tok.Token.kind with
    | Token.Eof -> fin := true
    | Token.Kw (Token.CONST | Token.TYPE | Token.VAR | Token.PROCEDURE | Token.BEGIN) ->
        (* imports precede all declarations: done *)
        fin := true
    | Token.Kw Token.FROM -> (
        match (next ()).Token.kind with
        | Token.Ident m ->
            on_import m;
            (* skip the imported identifier list *)
            let stop = ref false in
            while not !stop do
              match (next ()).Token.kind with
              | Token.Sym Token.Semi | Token.Eof -> stop := true
              | _ -> ()
            done
        | _ -> ())
    | Token.Kw Token.IMPORT ->
        (* IMPORT A, B, C ';' *)
        let stop = ref false in
        while not !stop do
          match (next ()).Token.kind with
          | Token.Ident m -> on_import m
          | Token.Sym Token.Comma -> ()
          | Token.Sym Token.Semi | Token.Eof -> stop := true
          | _ -> stop := true
        done
    | _ -> ()
  done
