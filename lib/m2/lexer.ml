(* The hand-written streaming lexer.

   One Lexor task runs this over each source file (the implementation
   module and every imported definition module), feeding tokens into the
   stream's token queue.  Lexor tasks never block (paper §2.3.3), which
   is what makes barrier events safe for token-queue consumers.

   Lexical ground rules of Modula-2(+):
   - reserved words are all-caps and cannot be identifiers;
   - comments are (* ... *) and nest; pragmas <* ... *> are skipped;
   - integer literals: decimal [0-9]+, octal [0-7]+B, hex [0-9A-F]+H,
     character code [0-7]+C;
   - real literals: digits '.' digits [E [+|-] digits];
   - strings in double or single quotes, no escapes, must not span lines.

   Scanning runs on a local cursor over the source string; [t.pos],
   [t.line] and [t.bol] are stored back once per token (and per newline).

   Work accounting: [Costs.lex_char] per character consumed plus
   [Costs.lex_token] per token produced, charged once per token through
   [Eff.work_units].  Both are one unit, and the lexer performs no other
   effect, so this is flush-exact with a charge per character: the same
   [Work] effects at the same points of the token stream. *)

open Mcc_sched

type t = {
  file : string;
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let create ~file src = { file; src; pos = 0; line = 1; bol = 0 }

let is_digit c = c >= '0' && c <= '9'
let is_oct c = c >= '0' && c <= '7'
let is_hex c = is_digit c || (c >= 'A' && c <= 'F')
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_alnum c = is_alpha c || is_digit c

(* The byte at [pos], or NUL past the end. *)
let at t pos = if pos < String.length t.src then String.unsafe_get t.src pos else '\000'

let newline t pos =
  t.line <- t.line + 1;
  t.bol <- pos + 1

(* The offset just past the (possibly nested) comment whose opener
   starts at [pos] (call with [depth] 0), or the end of the source if it
   is unterminated (the caller then sees Eof).  [op]/[cl] distinguish
   (* *) comments from <* *> pragmas: only a comment's own opener nests. *)
let rec skip_comment t pos depth ~op ~cl =
  if pos >= String.length t.src then pos
  else
    let c = String.unsafe_get t.src pos in
    if c = op && at t (pos + 1) = '*' then skip_comment t (pos + 2) (depth + 1) ~op ~cl
    else if c = '*' && at t (pos + 1) = cl then
      if depth = 1 then pos + 2 else skip_comment t (pos + 2) (depth - 1) ~op ~cl
    else begin
      if c = '\n' then newline t pos;
      skip_comment t (pos + 1) depth ~op ~cl
    end

let rec skip_blank t pos =
  match at t pos with
  | ' ' | '\t' | '\r' -> skip_blank t (pos + 1)
  | '\n' ->
      newline t pos;
      skip_blank t (pos + 1)
  | '(' when at t (pos + 1) = '*' -> skip_blank t (skip_comment t pos 0 ~op:'(' ~cl:')')
  | '<' when at t (pos + 1) = '*' -> skip_blank t (skip_comment t pos 0 ~op:'<' ~cl:'>')
  | _ -> pos

let rec skip_while t p pos = if p (at t pos) then skip_while t p (pos + 1) else pos

let rec word_end t pos =
  let c = at t pos in
  if is_alnum c || c = '_' then word_end t (pos + 1) else pos

let rec all_caps src pos stop =
  pos = stop
  ||
  let c = String.unsafe_get src pos in
  c >= 'A' && c <= 'Z' && all_caps src (pos + 1) stop

(* Only an all-capitals word can be reserved. *)
let lex_word t start =
  let stop = word_end t start in
  t.pos <- stop;
  if all_caps t.src start stop then Token.word t.src start (stop - start)
  else Token.Ident (String.sub t.src start (stop - start))

(* Numbers: scan the maximal [0-9A-F]* prefix, then classify by suffix
   (H = hex, B = octal, C = char code) or continue into a real literal.
   "1..10" needs care: a '.' followed by another '.' ends the number. *)
let rec all_decimal src pos stop = pos = stop || (is_digit src.[pos] && all_decimal src (pos + 1) stop)

let rec decimal src pos stop n =
  if pos = stop then n else decimal src (pos + 1) stop ((n * 10) + Char.code src.[pos] - Char.code '0')

let lex_number t start =
  let stop = skip_while t is_hex start in
  let after = at t stop in
  let real = after = '.' && at t (stop + 1) <> '.' in
  t.pos <- stop;
  (* the common case, a decimal integer of at most 18 digits (it cannot
     overflow), is read in place *)
  if stop - start <= 18 && all_decimal t.src start stop && after <> 'H' && not real then
    Token.IntLit (decimal t.src start stop 0)
  else
    let digits = String.sub t.src start (stop - start) in
    let all_dec = String.for_all is_digit digits in
    (* 'B' and 'C' are hex digits *and* the octal/char-code suffixes: with
       no 'H' following, a trailing B/C over octal digits is a suffix *)
    let body = String.sub digits 0 (String.length digits - 1) in
    let last = digits.[String.length digits - 1] in
    let body_oct = body <> "" && String.for_all is_oct body in
    if after = 'H' then begin
      t.pos <- stop + 1;
      match int_of_string_opt ("0x" ^ digits) with
      | Some n -> Token.IntLit n
      | None -> Token.Error (Printf.sprintf "bad hexadecimal literal %sH" digits)
    end
    else if last = 'B' && body_oct then begin
      match int_of_string_opt ("0o" ^ body) with
      | Some n -> Token.IntLit n
      | None -> Token.Error (Printf.sprintf "bad octal literal %s" digits)
    end
    else if last = 'C' && body_oct then begin
      match int_of_string_opt ("0o" ^ body) with
      | Some n when n < 256 -> Token.CharLit (Char.chr n)
      | _ -> Token.Error (Printf.sprintf "bad character code %s" digits)
    end
    else if real && all_dec then begin
      let pos = skip_while t is_digit (stop + 1) in
      let pos =
        if at t pos = 'E' then
          let pos = pos + 1 in
          skip_while t is_digit (if at t pos = '+' || at t pos = '-' then pos + 1 else pos)
        else pos
      in
      t.pos <- pos;
      let text = String.sub t.src start (pos - start) in
      match float_of_string_opt text with
      | Some f -> Token.RealLit f
      | None -> Token.Error (Printf.sprintf "bad real literal %s" text)
    end
    else if all_dec then
      match int_of_string_opt digits with
      | Some n -> Token.IntLit n
      | None -> Token.Error (Printf.sprintf "integer literal out of range: %s" digits)
    else Token.Error (Printf.sprintf "bad numeric literal %s" digits)

(* A string may not span lines; an unterminated one stops before the
   newline (or at the end of the source). *)
let rec string_end t pos quote =
  if pos >= String.length t.src then pos
  else
    let c = String.unsafe_get t.src pos in
    if c = quote || c = '\n' then pos else string_end t (pos + 1) quote

let lex_string t start quote =
  let stop = string_end t (start + 1) quote in
  if stop < String.length t.src && String.unsafe_get t.src stop = quote then begin
    t.pos <- stop + 1;
    Token.StrLit (String.sub t.src (start + 1) (stop - start - 1))
  end
  else begin
    t.pos <- stop;
    Token.Error "unterminated string literal"
  end

(* A symbol [width] bytes wide.  Every symbol kind passed here is a
   constant, so returning it allocates nothing. *)
let sym t pos width k =
  t.pos <- pos + width;
  k

let lex_sym t pos =
  match at t pos with
  | '+' -> sym t pos 1 (Token.Sym Token.Plus)
  | '-' -> sym t pos 1 (Token.Sym Token.Minus)
  | '*' -> sym t pos 1 (Token.Sym Token.Star)
  | '/' -> sym t pos 1 (Token.Sym Token.Slash)
  | ':' ->
      if at t (pos + 1) = '=' then sym t pos 2 (Token.Sym Token.Assign)
      else sym t pos 1 (Token.Sym Token.Colon)
  | '=' -> sym t pos 1 (Token.Sym Token.Eq)
  | '#' -> sym t pos 1 (Token.Sym Token.Neq)
  | '<' -> (
      match at t (pos + 1) with
      | '=' -> sym t pos 2 (Token.Sym Token.Le)
      | '>' -> sym t pos 2 (Token.Sym Token.Neq)
      | _ -> sym t pos 1 (Token.Sym Token.Lt))
  | '>' ->
      if at t (pos + 1) = '=' then sym t pos 2 (Token.Sym Token.Ge)
      else sym t pos 1 (Token.Sym Token.Gt)
  | '(' -> sym t pos 1 (Token.Sym Token.Lparen)
  | ')' -> sym t pos 1 (Token.Sym Token.Rparen)
  | '[' -> sym t pos 1 (Token.Sym Token.Lbracket)
  | ']' -> sym t pos 1 (Token.Sym Token.Rbracket)
  | '{' -> sym t pos 1 (Token.Sym Token.Lbrace)
  | '}' -> sym t pos 1 (Token.Sym Token.Rbrace)
  | ',' -> sym t pos 1 (Token.Sym Token.Comma)
  | ';' -> sym t pos 1 (Token.Sym Token.Semi)
  | '.' ->
      if at t (pos + 1) = '.' then sym t pos 2 (Token.Sym Token.DotDot)
      else sym t pos 1 (Token.Sym Token.Dot)
  | '^' -> sym t pos 1 (Token.Sym Token.Caret)
  | '|' -> sym t pos 1 (Token.Sym Token.Bar)
  | '&' -> sym t pos 1 (Token.Sym Token.Amp)
  | '~' -> sym t pos 1 (Token.Sym Token.Tilde)
  | c -> sym t pos 1 (Token.Error (Printf.sprintf "unexpected character %C" c))

let next t =
  let start = t.pos in
  let pos = skip_blank t start in
  let line = t.line and col = pos - t.bol + 1 in
  let kind =
    if pos >= String.length t.src then begin
      t.pos <- pos;
      Token.Eof
    end
    else
      let c = String.unsafe_get t.src pos in
      if is_alpha c then lex_word t pos
      else if is_digit c then lex_number t pos
      else if c = '"' || c = '\'' then lex_string t pos c
      else lex_sym t pos
  in
  (* token and location in one allocation *)
  let tok = { Token.kind; loc = { Loc.line; col; off = pos } } in
  Eff.work_units (((t.pos - start) * Costs.lex_char) + Costs.lex_token);
  tok

(* Lex an entire source to a list — used by tests and by the sequential
   compiler's direct pull path. *)
let all ~file src =
  let t = create ~file src in
  let rec go acc =
    let tok = next t in
    if Token.is_eof tok then List.rev (tok :: acc) else go (tok :: acc)
  in
  go []
