(* Tests for the Splitter and Importer finite-state recognizers. *)

open Mcc_m2
open Mcc_sched
module Symtab = Mcc_sem.Symtab
module Stream = Mcc_core.Stream

(* Run the splitter over [src] under the DES; returns the stripped token
   kinds and the created streams with their token kinds. *)
let split src =
  let root_scope = Symtab.create (Symtab.KMain "T") in
  let out = Tokq.create ~src ~block_size:64 ~barrier:false ~name:"out" in
  let streams = ref [] in
  let stripped = ref [] in
  let stream_toks = Hashtbl.create 8 in
  let lexor =
    Task.create ~cls:Task.Lexor ~name:"lexor" (fun () ->
        let q = Tokq.create ~src ~block_size:64 ~barrier:false ~name:"raw" in
        let lx = Lexer.create ~file:"t" src in
        let rec go () =
          let tok = Lexer.next lx in
          Tokq.put q tok;
          if not (Token.is_eof tok) then go ()
        in
        go ();
        Tokq.close q;
        Eff.spawn
          (Task.create ~cls:Task.Splitter ~name:"splitter" (fun () ->
               Stream.run_splitter ~rd:(Tokq.reader q) ~out ~root_scope ~root_path:"T"
                 ~next_id:
                   (let n = ref 0 in
                    fun () ->
                      incr n;
                      !n)
                 ~on_stream:(fun ps ->
                     streams := ps :: !streams;
                     Eff.spawn
                       (Task.create ~cls:Task.ProcParse ~name:("drain:" ^ ps.Stream.ps_path)
                          (fun () ->
                            let rd = Tokq.reader ps.Stream.ps_q in
                            let rec go acc =
                              let t = Reader.next rd in
                              if Token.is_eof t then List.rev acc else go (t.Token.kind :: acc)
                            in
                            Hashtbl.replace stream_toks ps.Stream.ps_path (go []))))));
        Eff.spawn
          (Task.create ~cls:Task.ModParse ~name:"drain-out" (fun () ->
               let rd = Tokq.reader out in
               let rec go acc =
                 let t = Reader.next rd in
                 if Token.is_eof t then List.rev acc else go (t.Token.kind :: acc)
               in
               stripped := go [])))
  in
  let r = Des_engine.run ~procs:2 [ lexor ] in
  (match r.Des_engine.outcome with
  | Des_engine.Completed -> ()
  | Des_engine.Deadlocked l -> Alcotest.failf "splitter deadlock: %s" (String.concat ";" l));
  (!stripped, List.rev !streams, stream_toks)

let count_marks kinds =
  List.length (List.filter (function Token.SplitMark _ -> true | _ -> false) kinds)

let test_no_procedures_passthrough () =
  let src = "IMPLEMENTATION MODULE T;\nVAR x: INTEGER;\nBEGIN x := 1\nEND T.\n" in
  let stripped, streams, _ = split src in
  Alcotest.(check int) "no streams" 0 (List.length streams);
  Alcotest.(check int) "token count preserved"
    (List.length (Lexer.all ~file:"t" src) - 1)
    (List.length stripped)

let test_simple_procedure_extracted () =
  let src =
    "IMPLEMENTATION MODULE T;\nPROCEDURE P(x: INTEGER): INTEGER;\nBEGIN RETURN x END P;\nBEGIN\nEND T.\n"
  in
  let stripped, streams, toks = split src in
  Alcotest.(check int) "one stream" 1 (List.length streams);
  let ps = List.hd streams in
  Alcotest.(check string) "path" "T.P" ps.Stream.ps_path;
  Alcotest.(check int) "one split mark in parent" 1 (count_marks stripped);
  (* heading appears in BOTH parent and child streams *)
  let heading = [ Token.Kw Token.PROCEDURE; Token.Ident "P"; Token.Sym Token.Lparen ] in
  let starts_with l prefix =
    List.length l >= List.length prefix && List.for_all2 ( = ) (List.filteri (fun i _ -> i < 3) l) prefix
  in
  let child = Hashtbl.find toks "T.P" in
  Alcotest.(check bool) "child has heading" true (starts_with child heading);
  let after_mark = ref false and parent_heading = ref [] in
  List.iter
    (fun k ->
      match k with
      | Token.Kw Token.PROCEDURE -> parent_heading := [ k ]
      | Token.SplitMark _ -> after_mark := true
      | k when not !after_mark && !parent_heading <> [] -> parent_heading := k :: !parent_heading
      | _ -> ())
    stripped;
  Alcotest.(check bool) "parent kept heading too" true
    (List.exists (fun k -> k = Token.Ident "P") !parent_heading);
  (* the body went only to the child *)
  Alcotest.(check bool) "RETURN not in parent" false
    (List.mem (Token.Kw Token.RETURN) stripped);
  Alcotest.(check bool) "RETURN in child" true (List.mem (Token.Kw Token.RETURN) child)

let test_nested_procedures_recursive () =
  let src =
    {|IMPLEMENTATION MODULE T;
PROCEDURE Outer;
  PROCEDURE Inner(q: INTEGER);
  BEGIN q := q + 1 END Inner;
BEGIN Inner(1) END Outer;
BEGIN
END T.
|}
  in
  let _, streams, toks = split src in
  Alcotest.(check (list string)) "two streams, nested path" [ "T.Outer"; "T.Outer.Inner" ]
    (List.sort compare (List.map (fun ps -> ps.Stream.ps_path) streams));
  let outer = Hashtbl.find toks "T.Outer" in
  Alcotest.(check int) "outer holds the nested split mark" 1 (count_marks outer);
  let depths = List.map (fun ps -> (ps.Stream.ps_path, ps.Stream.ps_depth)) streams in
  Alcotest.(check (list (pair string int))) "depths" [ ("T.Outer", 1); ("T.Outer.Inner", 2) ]
    (List.sort compare depths)

let test_procedure_type_not_split () =
  let src =
    {|IMPLEMENTATION MODULE T;
TYPE F = PROCEDURE (INTEGER): INTEGER;
VAR f: PROCEDURE;
BEGIN
END T.
|}
  in
  let _, streams, _ = split src in
  Alcotest.(check int) "no streams for procedure types" 0 (List.length streams)

let test_end_matching_constructs () =
  (* every END-closed construct inside a body must not terminate the
     stream early *)
  let src =
    {|IMPLEMENTATION MODULE T;
PROCEDURE P;
VAR r: RECORD f: INTEGER END; x: INTEGER; e: EXCEPTION; mu: MUTEX;
BEGIN
  IF TRUE THEN x := 1 END;
  CASE x OF 0: x := 1 ELSE x := 2 END;
  WHILE FALSE DO x := 1 END;
  FOR x := 0 TO 3 DO x := x END;
  WITH r DO f := 1 END;
  LOOP EXIT END;
  TRY x := 1 EXCEPT e: x := 2 END;
  LOCK mu DO x := 3 END
END P;
BEGIN
END T.
|}
  in
  let stripped, streams, toks = split src in
  Alcotest.(check int) "one stream" 1 (List.length streams);
  let child = Hashtbl.find toks "T.P" in
  (* the child ends with END P ; *)
  let rec last3 = function
    | [ a; b; c ] -> (a, b, c)
    | _ :: tl -> last3 tl
    | [] -> Alcotest.fail "child too short"
  in
  let a, b, c = last3 child in
  Alcotest.(check bool) "ends with END P ;" true
    (a = Token.Kw Token.END && b = Token.Ident "P" && c = Token.Sym Token.Semi);
  Alcotest.(check int) "one mark" 1 (count_marks stripped)

(* conservation: tokens in = stripped tokens (minus marks) + stream tokens *)
let test_token_conservation () =
  let src =
    {|IMPLEMENTATION MODULE T;
VAR g: INTEGER;
PROCEDURE A(x: INTEGER): INTEGER;
BEGIN RETURN x * 2 END A;
PROCEDURE B;
  PROCEDURE C; BEGIN END C;
BEGIN C END B;
BEGIN g := A(21)
END T.
|}
  in
  let stripped, streams, toks = split src in
  let total_in = List.length (Lexer.all ~file:"t" src) - 1 (* minus eof *) in
  (* split marks are synthetic: they appear in the stripped stream and in
     any stream that contains a nested procedure *)
  let marks =
    count_marks stripped
    + Hashtbl.fold (fun _ l acc -> acc + count_marks l) toks 0
  in
  let heading_tokens =
    (* heading tokens are duplicated into parent and child: count them
       once per stream to correct the balance *)
    List.fold_left
      (fun acc ps ->
        let child = Hashtbl.find toks ps.Stream.ps_path in
        let rec heading_len n = function
          | Token.Sym Token.Semi :: _ -> n + 1
          | k :: tl -> if k = Token.Sym Token.Lparen then heading_len (n + 1) tl else heading_len (n + 1) tl
          | [] -> n
        in
        acc + heading_len 0 child)
      0 streams
  in
  ignore heading_tokens;
  let stream_total =
    Hashtbl.fold (fun _ l acc -> acc + List.length l) toks 0
  in
  (* in = (stripped - marks - duplicated headings) + streams *)
  let dup =
    List.fold_left
      (fun acc ps ->
        let child = Hashtbl.find toks ps.Stream.ps_path in
        let rec upto_semi n paren = function
          | [] -> n
          | Token.Sym Token.Lparen :: tl -> upto_semi (n + 1) (paren + 1) tl
          | Token.Sym Token.Rparen :: tl -> upto_semi (n + 1) (paren - 1) tl
          | Token.Sym Token.Semi :: _ when paren = 0 -> n + 1
          | _ :: tl -> upto_semi (n + 1) paren tl
        in
        acc + upto_semi 0 0 child)
      0 streams
  in
  Alcotest.(check int) "token conservation" total_in
    (List.length stripped - marks - dup + stream_total)

(* --- importer --- *)

let imports_of src =
  let acc = ref [] in
  Stream.run_importer
    ~rd:(Reader.of_lexer (Lexer.create ~file:"t" src))
    ~on_import:(fun m -> acc := m :: !acc);
  List.rev !acc

let test_importer_forms () =
  Alcotest.(check (list string)) "plain imports" [ "A"; "B"; "C" ]
    (imports_of "IMPLEMENTATION MODULE T;\nIMPORT A, B;\nIMPORT C;\nEND T.");
  Alcotest.(check (list string)) "from import names only the module" [ "A" ]
    (imports_of "IMPLEMENTATION MODULE T;\nFROM A IMPORT x, y, z;\nEND T.");
  Alcotest.(check (list string)) "mixed" [ "A"; "B" ]
    (imports_of "IMPLEMENTATION MODULE T;\nFROM A IMPORT x;\nIMPORT B;\nEND T.")

let test_importer_stops_at_decls () =
  (* IMPORT-lookalike identifiers after the declaration section never
     reach the importer: it stops at the first declaration keyword *)
  Alcotest.(check (list string)) "stops" [ "A" ]
    (imports_of "IMPLEMENTATION MODULE T;\nIMPORT A;\nVAR x: INTEGER;\nIMPORT Ghost;\nEND T.")

let () =
  Alcotest.run "splitter"
    [
      ( "splitter",
        [
          Alcotest.test_case "passthrough" `Quick test_no_procedures_passthrough;
          Alcotest.test_case "simple extraction" `Quick test_simple_procedure_extracted;
          Alcotest.test_case "nested recursion" `Quick test_nested_procedures_recursive;
          Alcotest.test_case "procedure types kept" `Quick test_procedure_type_not_split;
          Alcotest.test_case "END matching" `Quick test_end_matching_constructs;
          Alcotest.test_case "token conservation" `Quick test_token_conservation;
        ] );
      ( "importer",
        [
          Alcotest.test_case "forms" `Quick test_importer_forms;
          Alcotest.test_case "stops at declarations" `Quick test_importer_stops_at_decls;
        ] );
    ]
