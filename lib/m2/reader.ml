(* Token readers: the pull interface consumed by the Splitter, the
   Importer and the parsers.

   A reader abstracts over where tokens come from — a live token queue
   fed by a concurrently running Lexor task (concurrent compiler), whose
   pull function decodes the queue's packed blocks (see [Tokq]), or the
   lexer pulled directly (sequential compiler) — and provides the small
   fixed lookahead the paper notes is needed to resolve tokens with
   multiple interpretations such as PROCEDURE (§2.1). *)

type t = {
  pull : unit -> Token.t;
  mutable buf0 : Token.t option; (* 1-token lookahead *)
  mutable buf1 : Token.t option; (* 2-token lookahead *)
}

let of_fn pull = { pull; buf0 = None; buf1 = None }
let pull t = t.pull ()

(* A reader that pulls the lexer directly (sequential compiler path). *)
let of_lexer lx = of_fn (fun () -> Lexer.next lx)

let of_list toks =
  let rest = ref toks in
  let last_loc = ref Loc.none in
  of_fn (fun () ->
      match !rest with
      | [] -> Token.eof !last_loc
      | tok :: tl ->
          rest := tl;
          last_loc := tok.Token.loc;
          tok)

let next t =
  match t.buf0 with
  | Some tok ->
      t.buf0 <- t.buf1;
      t.buf1 <- None;
      tok
  | None -> pull t

let peek t =
  match t.buf0 with
  | Some tok -> tok
  | None ->
      let tok = pull t in
      t.buf0 <- Some tok;
      tok

let peek2 t =
  ignore (peek t);
  match t.buf1 with
  | Some tok -> tok
  | None ->
      let tok = pull t in
      t.buf1 <- Some tok;
      tok

(* Consume-and-collect everything up to Eof (tests). *)
let drain t =
  let rec go acc =
    let tok = next t in
    if Token.is_eof tok then List.rev acc else go (tok :: acc)
  in
  go []
