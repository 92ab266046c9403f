(* Tests for the streaming lexer. *)

open Mcc_m2

let lex src = List.map (fun t -> t.Token.kind) (Lexer.all ~file:"t" src)

let lex_no_eof src =
  List.filter (fun k -> k <> Token.Eof) (lex src)

let kinds = Alcotest.testable (fun ppf k -> Format.pp_print_string ppf (Token.kind_to_string k)) ( = )

let test_idents_keywords () =
  Alcotest.(check (list kinds)) "mix"
    [ Token.Kw Token.MODULE; Token.Ident "Foo"; Token.Sym Token.Semi ]
    (lex_no_eof "MODULE Foo;");
  (* keywords are case sensitive: lowercase is an identifier *)
  Alcotest.(check (list kinds)) "case sensitivity" [ Token.Ident "module" ] (lex_no_eof "module");
  Alcotest.(check (list kinds)) "underscores" [ Token.Ident "a_b1" ] (lex_no_eof "a_b1")

let test_every_keyword () =
  List.iter
    (fun (s, k) ->
      Alcotest.(check (list kinds)) s [ Token.Kw k ] (lex_no_eof s))
    Token.keywords

let test_numbers () =
  Alcotest.(check (list kinds)) "decimal" [ Token.IntLit 123 ] (lex_no_eof "123");
  Alcotest.(check (list kinds)) "hex" [ Token.IntLit 255 ] (lex_no_eof "0FFH");
  Alcotest.(check (list kinds)) "octal" [ Token.IntLit 8 ] (lex_no_eof "10B");
  Alcotest.(check (list kinds)) "char code" [ Token.CharLit 'A' ] (lex_no_eof "101C");
  Alcotest.(check (list kinds)) "real" [ Token.RealLit 3.5 ] (lex_no_eof "3.5");
  Alcotest.(check (list kinds)) "real with exponent" [ Token.RealLit 1200.0 ] (lex_no_eof "1.2E3");
  Alcotest.(check (list kinds)) "range is not a real"
    [ Token.IntLit 1; Token.Sym Token.DotDot; Token.IntLit 10 ]
    (lex_no_eof "1..10")

let test_strings () =
  Alcotest.(check (list kinds)) "double quoted" [ Token.StrLit "hi" ] (lex_no_eof "\"hi\"");
  Alcotest.(check (list kinds)) "single quoted" [ Token.StrLit "x" ] (lex_no_eof "'x'");
  Alcotest.(check (list kinds)) "empty" [ Token.StrLit "" ] (lex_no_eof "\"\"");
  match lex_no_eof "\"unterminated" with
  | [ Token.Error _ ] -> ()
  | l -> Alcotest.failf "expected a lexical error, got %d tokens" (List.length l)

let test_comments () =
  Alcotest.(check (list kinds)) "simple" [ Token.IntLit 1; Token.IntLit 2 ]
    (lex_no_eof "1 (* comment *) 2");
  Alcotest.(check (list kinds)) "nested" [ Token.IntLit 1; Token.IntLit 2 ]
    (lex_no_eof "1 (* a (* nested (* deep *) *) b *) 2");
  Alcotest.(check (list kinds)) "pragma skipped" [ Token.IntLit 7 ] (lex_no_eof "<* pragma *> 7");
  (* an unterminated comment just ends the stream *)
  Alcotest.(check (list kinds)) "unterminated comment" [ Token.IntLit 5 ] (lex_no_eof "5 (* oops")

let test_symbols () =
  let all = ":= <= >= <> .. + - * / = # < > ( ) [ ] { } , ; : . ^ | & ~" in
  let expected =
    Token.
      [
        Sym Assign; Sym Le; Sym Ge; Sym Neq; Sym DotDot; Sym Plus; Sym Minus; Sym Star;
        Sym Slash; Sym Eq; Sym Neq; Sym Lt; Sym Gt; Sym Lparen; Sym Rparen; Sym Lbracket;
        Sym Rbracket; Sym Lbrace; Sym Rbrace; Sym Comma; Sym Semi; Sym Colon; Sym Dot;
        Sym Caret; Sym Bar; Sym Amp; Sym Tilde;
      ]
  in
  Alcotest.(check (list kinds)) "symbols" expected (lex_no_eof all)

let test_positions () =
  let toks = Lexer.all ~file:"t" "a\n  bb\n" in
  match toks with
  | [ a; b; _eof ] ->
      Alcotest.(check int) "a line" 1 a.Token.loc.Loc.line;
      Alcotest.(check int) "a col" 1 a.Token.loc.Loc.col;
      Alcotest.(check int) "b line" 2 b.Token.loc.Loc.line;
      Alcotest.(check int) "b col" 3 b.Token.loc.Loc.col;
      Alcotest.(check int) "b offset" 4 b.Token.loc.Loc.off
  | _ -> Alcotest.fail "expected two tokens"

let test_eof_stable () =
  let lx = Lexer.create ~file:"t" "x" in
  ignore (Lexer.next lx);
  Alcotest.(check bool) "eof" true (Token.is_eof (Lexer.next lx));
  Alcotest.(check bool) "eof again" true (Token.is_eof (Lexer.next lx))

(* The lexer charges one unit per character consumed and one per token,
   Eof included: lexing a whole source charges its length plus its token
   count, comments, blanks and unterminated constructs included. *)
let test_charges () =
  List.iter
    (fun src ->
      let charged =
        Mcc_sched.Eff.within Mcc_sched.Eff.Direct (fun () ->
            let toks = Lexer.all ~file:"t" src in
            Mcc_sched.Eff.flush ();
            (List.length toks, Mcc_sched.Eff.get_direct_total ()))
      in
      let n, units = charged in
      Alcotest.(check (float 0.0)) src (float_of_int (String.length src + n)) units)
    [
      "";
      "MODULE Foo; BEGIN x := 1.5E3 + 0FFH END Foo.";
      "(* a (* nested *) comment *)\n  <* pragma *> 12B 101C 'str' \"s\" #";
      "a\n\"unterminated\n(* unterminated comment";
      String.concat " " (List.init 300 (fun i -> Printf.sprintf "x%d := %d;" i i));
    ]

(* Property: pretty-printing a random token sequence and re-lexing it
   yields the same sequence (tokens that survive printing). *)
let token_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Token.IntLit (abs n)) small_int;
        map (fun s -> Token.Ident ("id" ^ string_of_int (abs s))) small_int;
        return (Token.Kw Token.BEGIN);
        return (Token.Kw Token.END);
        return (Token.Sym Token.Semi);
        return (Token.Sym Token.Assign);
        return (Token.Sym Token.Plus);
        map (fun c -> Token.StrLit (String.make 1 (Char.chr (97 + (abs c mod 26))))) small_int;
      ])

let prop_roundtrip =
  QCheck.Test.make ~name:"print-then-lex roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 50) token_gen))
    (fun toks ->
      let text =
        String.concat " "
          (List.map
             (fun k ->
               match k with
               | Token.StrLit s -> Printf.sprintf "%S" s
               | k -> Token.kind_to_string k)
             toks)
      in
      lex_no_eof text = toks)

let () =
  Alcotest.run "lexer"
    [
      ( "tokens",
        [
          Alcotest.test_case "identifiers and keywords" `Quick test_idents_keywords;
          Alcotest.test_case "every keyword" `Quick test_every_keyword;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "symbols" `Quick test_symbols;
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "eof stable" `Quick test_eof_stable;
          Alcotest.test_case "charges" `Quick test_charges;
        ] );
      ("properties", [ Tutil.qtest prop_roundtrip ]);
    ]
