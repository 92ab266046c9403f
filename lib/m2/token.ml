(* Lexical tokens of Modula-2+.

   Reserved words (not keywords) determine the lexical structure of the
   language — the property the paper's whole approach depends on: "We
   restricted ourselves to languages in which reserved words were used to
   determine the lexical structure of programs.  This restriction allows
   us to partition programs for concurrent processing during lexical
   analysis" (§1).

   [SplitMark] is a synthetic token inserted by the Splitter into the
   parent stream where a procedure body was diverted to a child stream;
   it carries the child stream's id so the parent parser can associate
   the declared procedure with the stream that compiles its body. *)

type kw =
  | AND
  | ARRAY
  | BEGIN
  | BY
  | CASE
  | CONST
  | DEFINITION
  | DIV
  | DO
  | ELSE
  | ELSIF
  | END
  | EXCEPT (* Modula-2+ *)
  | EXIT
  | EXPORT
  | FINALLY (* Modula-2+ *)
  | FOR
  | FROM
  | IF
  | IMPLEMENTATION
  | IMPORT
  | IN
  | LOCK (* Modula-2+ *)
  | LOOP
  | MOD
  | MODULE
  | NOT
  | OF
  | OR
  | PASSING (* Modula-2+ (accepted, unused) *)
  | POINTER
  | PROCEDURE
  | QUALIFIED
  | RAISE (* Modula-2+ *)
  | RECORD
  | REPEAT
  | RETURN
  | SET
  | THEN
  | TO
  | TRY (* Modula-2+ *)
  | TYPE
  | UNTIL
  | VAR
  | WHILE
  | WITH

type sym =
  | Plus
  | Minus
  | Star
  | Slash
  | Assign (* := *)
  | Eq
  | Neq (* # or <> *)
  | Lt
  | Le
  | Gt
  | Ge
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Lbrace
  | Rbrace
  | Comma
  | Semi
  | Colon
  | DotDot
  | Dot
  | Caret
  | Bar
  | Amp (* & = AND *)
  | Tilde (* ~ = NOT *)

type kind =
  | Ident of string
  | IntLit of int
  | RealLit of float
  | CharLit of char
  | StrLit of string
  | Kw of kw
  | Sym of sym
  | SplitMark of int (* child stream id *)
  | Error of string (* lexical error, reported by the consumer *)
  | Eof

type t = { kind : kind; loc : Loc.t }

let make kind loc = { kind; loc }
let eof loc = { kind = Eof; loc }

let keywords =
  [
    ("AND", AND); ("ARRAY", ARRAY); ("BEGIN", BEGIN); ("BY", BY); ("CASE", CASE);
    ("CONST", CONST); ("DEFINITION", DEFINITION); ("DIV", DIV); ("DO", DO);
    ("ELSE", ELSE); ("ELSIF", ELSIF); ("END", END); ("EXCEPT", EXCEPT);
    ("EXIT", EXIT); ("EXPORT", EXPORT); ("FINALLY", FINALLY); ("FOR", FOR);
    ("FROM", FROM); ("IF", IF); ("IMPLEMENTATION", IMPLEMENTATION);
    ("IMPORT", IMPORT); ("IN", IN); ("LOCK", LOCK); ("LOOP", LOOP); ("MOD", MOD);
    ("MODULE", MODULE); ("NOT", NOT); ("OF", OF); ("OR", OR); ("PASSING", PASSING);
    ("POINTER", POINTER); ("PROCEDURE", PROCEDURE); ("QUALIFIED", QUALIFIED);
    ("RAISE", RAISE); ("RECORD", RECORD); ("REPEAT", REPEAT); ("RETURN", RETURN);
    ("SET", SET); ("THEN", THEN); ("TO", TO); ("TRY", TRY); ("TYPE", TYPE);
    ("UNTIL", UNTIL); ("VAR", VAR); ("WHILE", WHILE); ("WITH", WITH);
  ]

(* Index tables: a token queue stores a [Kw] or [Sym] as an index and
   reads back the one shared kind at that index.  Reserved words are
   indexed in [keywords] order, symbols in [symbols] order; both index
   functions are checked against their tables below. *)
let kw_index = function
  | AND -> 0 | ARRAY -> 1 | BEGIN -> 2 | BY -> 3 | CASE -> 4 | CONST -> 5
  | DEFINITION -> 6 | DIV -> 7 | DO -> 8 | ELSE -> 9 | ELSIF -> 10 | END -> 11
  | EXCEPT -> 12 | EXIT -> 13 | EXPORT -> 14 | FINALLY -> 15 | FOR -> 16
  | FROM -> 17 | IF -> 18 | IMPLEMENTATION -> 19 | IMPORT -> 20 | IN -> 21
  | LOCK -> 22 | LOOP -> 23 | MOD -> 24 | MODULE -> 25 | NOT -> 26 | OF -> 27
  | OR -> 28 | PASSING -> 29 | POINTER -> 30 | PROCEDURE -> 31 | QUALIFIED -> 32
  | RAISE -> 33 | RECORD -> 34 | REPEAT -> 35 | RETURN -> 36 | SET -> 37
  | THEN -> 38 | TO -> 39 | TRY -> 40 | TYPE -> 41 | UNTIL -> 42 | VAR -> 43
  | WHILE -> 44 | WITH -> 45

let symbols =
  [
    Plus; Minus; Star; Slash; Assign; Eq; Neq; Lt; Le; Gt; Ge; Lparen; Rparen;
    Lbracket; Rbracket; Lbrace; Rbrace; Comma; Semi; Colon; DotDot; Dot; Caret;
    Bar; Amp; Tilde;
  ]

let sym_index = function
  | Plus -> 0 | Minus -> 1 | Star -> 2 | Slash -> 3 | Assign -> 4 | Eq -> 5
  | Neq -> 6 | Lt -> 7 | Le -> 8 | Gt -> 9 | Ge -> 10 | Lparen -> 11
  | Rparen -> 12 | Lbracket -> 13 | Rbracket -> 14 | Lbrace -> 15 | Rbrace -> 16
  | Comma -> 17 | Semi -> 18 | Colon -> 19 | DotDot -> 20 | Dot -> 21
  | Caret -> 22 | Bar -> 23 | Amp -> 24 | Tilde -> 25

let kw_kinds = Array.of_list (List.map (fun (_, k) -> Kw k) keywords)
let sym_kinds = Array.of_list (List.map (fun s -> Sym s) symbols)

let () =
  let check index kinds name =
    Array.iteri
      (fun i k -> if index k <> i then failwith ("Token: " ^ name ^ " index table out of order"))
      kinds
  in
  check (function Kw k -> kw_index k | _ -> -1) kw_kinds "reserved-word";
  check (function Sym s -> sym_index s | _ -> -1) sym_kinds "symbol"

(* Reserved words bucketed by length and first letter, each with its
   one shared [Kw] kind: [word] matches a spelling in place, with no
   substring, no hashing and no fresh kind for a reserved word. *)
let max_kw_len = 14 (* IMPLEMENTATION *)
let bucket len c = (len * 26) + Char.code c - Char.code 'A'

let kw_buckets : (string * kind) list array =
  let b = Array.make (bucket (max_kw_len + 1) 'A') [] in
  List.iter
    (fun (s, k) ->
      let i = bucket (String.length s) s.[0] in
      b.(i) <- (s, kw_kinds.(kw_index k)) :: b.(i))
    keywords;
  b

(* [s] is spelled by [src] from [start], given equal lengths. *)
let rec spelled s src start i =
  i = String.length s || (s.[i] = src.[start + i] && spelled s src start (i + 1))

let rec find_kw src start len = function
  | [] -> Ident (String.sub src start len)
  | (s, k) :: rest -> if spelled s src start 1 then k else find_kw src start len rest

let word src start len =
  let c = src.[start] in
  if len > max_kw_len || c < 'A' || c > 'Z' then Ident (String.sub src start len)
  else find_kw src start len kw_buckets.(bucket len c)

let lookup_keyword s =
  if s = "" then None else match word s 0 (String.length s) with Kw k -> Some k | _ -> None

let kw_name k =
  match List.find_opt (fun (_, k') -> k' = k) keywords with
  | Some (s, _) -> s
  | None -> "?"

let sym_name = function
  | Plus -> "+" | Minus -> "-" | Star -> "*" | Slash -> "/" | Assign -> ":="
  | Eq -> "=" | Neq -> "#" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Lparen -> "(" | Rparen -> ")" | Lbracket -> "[" | Rbracket -> "]"
  | Lbrace -> "{" | Rbrace -> "}" | Comma -> "," | Semi -> ";" | Colon -> ":"
  | DotDot -> ".." | Dot -> "." | Caret -> "^" | Bar -> "|" | Amp -> "&"
  | Tilde -> "~"

let kind_to_string = function
  | Ident s -> s
  | IntLit n -> string_of_int n
  | RealLit f -> Printf.sprintf "%g" f
  | CharLit c -> Printf.sprintf "%dC" (Char.code c)
  | StrLit s -> Printf.sprintf "%S" s
  | Kw k -> kw_name k
  | Sym s -> sym_name s
  | SplitMark n -> Printf.sprintf "<split:%d>" n
  | Error m -> Printf.sprintf "<error:%s>" m
  | Eof -> "<eof>"

let describe t = kind_to_string t.kind

let is_kw t k = match t.kind with Kw k' -> k' = k | _ -> false
let is_sym t s = match t.kind with Sym s' -> s' = s | _ -> false
let is_ident t = match t.kind with Ident _ -> true | _ -> false
let is_eof t = match t.kind with Eof -> true | _ -> false
