(* Tests for token queues: producer/consumer blocks, events, multiple
   readers, behaviour under the DES engine, packed round trips and the
   memory a queued token costs. *)

open Mcc_m2
open Mcc_sched

let tok n = Token.make (Token.IntLit n) Loc.none
let queue name = Tokq.create ~src:"" ~block_size:64 ~barrier:false ~name

let ints_of rd =
  List.filter_map (fun t -> match t.Token.kind with Token.IntLit n -> Some n | _ -> None)
    (Reader.drain rd)

(* Outside an engine, puts before reads work as long as blocks are
   published before the reader catches up. *)
let test_direct_sequential_use () =
  let q = queue "q" in
  for i = 1 to 200 do
    Tokq.put q (tok i)
  done;
  Tokq.close q;
  Alcotest.(check (list int)) "all tokens in order" (List.init 200 (fun i -> i + 1))
    (ints_of (Tokq.reader q));
  Alcotest.(check int) "total" 200 (Tokq.total_tokens q)

let test_two_readers_independent () =
  let q = queue "q" in
  for i = 1 to 100 do
    Tokq.put q (tok i)
  done;
  Tokq.close q;
  let r1 = Tokq.reader q and r2 = Tokq.reader q in
  let a = ints_of r1 and b = ints_of r2 in
  Alcotest.(check (list int)) "reader 1" (List.init 100 (fun i -> i + 1)) a;
  Alcotest.(check (list int)) "reader 2" a b

let test_eof_after_close () =
  let q = queue "q" in
  Tokq.put q (tok 1);
  Tokq.close q;
  let rd = Tokq.reader q in
  ignore (Reader.next rd);
  Alcotest.(check bool) "eof" true (Token.is_eof (Reader.next rd));
  Alcotest.(check bool) "eof persists" true (Token.is_eof (Reader.next rd))

let test_put_after_close_rejected () =
  let q = queue "q" in
  Tokq.close q;
  match Tokq.put q (tok 1) with
  | () -> Alcotest.fail "expected invalid_arg"
  | exception Invalid_argument _ -> ()

(* Under the DES: a consumer racing a producer sees every token exactly
   once, with waits handled by the engine. *)
let test_concurrent_producer_consumer () =
  let q = queue "q" in
  let got = ref [] in
  let producer =
    Task.create ~cls:Task.Lexor ~name:"producer" (fun () ->
        for i = 1 to 500 do
          Eff.work 10;
          Tokq.put q (tok i)
        done;
        Tokq.close q)
  in
  let consumer =
    Task.create ~cls:Task.Splitter ~name:"consumer" (fun () ->
        let rd = Tokq.reader q in
        let rec go () =
          let t = Reader.next rd in
          if not (Token.is_eof t) then begin
            (match t.Token.kind with Token.IntLit n -> got := n :: !got | _ -> ());
            go ()
          end
        in
        go ())
  in
  let r = Des_engine.run ~procs:2 [ producer; consumer ] in
  Alcotest.(check bool) "completed" true
    (match r.Des_engine.outcome with Des_engine.Completed -> true | _ -> false);
  Alcotest.(check (list int)) "all tokens once, in order" (List.init 500 (fun i -> i + 1))
    (List.rev !got)

let test_barrier_queue_under_des () =
  let q = Tokq.create ~src:"" ~block_size:64 ~barrier:true ~name:"q" in
  let n_read = ref 0 in
  let producer =
    Task.create ~cls:Task.Lexor ~name:"producer" (fun () ->
        for i = 1 to 300 do
          Eff.work 5;
          Tokq.put q (tok i)
        done;
        Tokq.close q)
  in
  let consumer =
    Task.create ~cls:Task.Splitter ~name:"consumer" (fun () ->
        let rd = Tokq.reader q in
        while not (Token.is_eof (Reader.next rd)) do
          incr n_read
        done)
  in
  let r = Des_engine.run ~procs:2 [ producer; consumer ] in
  Alcotest.(check bool) "completed" true
    (match r.Des_engine.outcome with Des_engine.Completed -> true | _ -> false);
  Alcotest.(check int) "tokens read" 300 !n_read

(* Block boundaries.  Token [i] is located at line [i], so a reader's
   Eof location tells which token was put last. *)
let tok_at i = Token.make (Token.IntLit i) (Loc.make ~line:i ~col:1 ~off:i)

let filled ?(block_size = 64) n =
  let q = Tokq.create ~src:"" ~block_size ~barrier:false ~name:"q" in
  for i = 1 to n do
    Tokq.put q (tok_at i)
  done;
  q

(* Everything up to the first Eof, and that Eof's location; a second
   read past the end must give Eof at the same place. *)
let read_all rd =
  let toks = Reader.drain rd in
  let eof = Reader.next rd in
  Alcotest.(check bool) "eof persists" true (Token.is_eof eof);
  (List.map (fun (t : Token.t) -> t.loc.Loc.line) toks, eof.Token.loc)

let check_stream name ?block_size n =
  let q = filled ?block_size n in
  Alcotest.(check int) (name ^ ": total before close") n (Tokq.total_tokens q);
  Tokq.close q;
  Alcotest.(check int) (name ^ ": total after close") n (Tokq.total_tokens q);
  let lines, eof = read_all (Tokq.reader q) in
  Alcotest.(check (list int)) (name ^ ": tokens") (List.init n (fun i -> i + 1)) lines;
  let last = if n = 0 then Loc.none else (tok_at n).Token.loc in
  Alcotest.(check bool) (name ^ ": eof at the last token put") true (eof = last)

let test_block_boundaries () =
  check_stream "empty" 0;
  check_stream "one block" 64;
  check_stream "three blocks" (3 * 64);
  check_stream "three blocks and 5" ((3 * 64) + 5);
  check_stream "one short block" 63;
  check_stream "block size 1" ~block_size:1 7;
  check_stream "block size 1, empty" ~block_size:1 0

(* Two readers interleaved with the producer, block size 4: each read
   stays within the blocks published so far, as a reader outside an
   engine must. *)
let test_readers_interleaved () =
  let q = Tokq.create ~src:"" ~block_size:4 ~barrier:false ~name:"q" in
  let put_range a b =
    for i = a to b do
      Tokq.put q (tok_at i)
    done
  in
  let take rd k = List.init k (fun _ -> (Reader.next rd).Token.loc.Loc.line) in
  let r1 = Tokq.reader q in
  put_range 1 8;
  Alcotest.(check int) "total, two blocks" 8 (Tokq.total_tokens q);
  Alcotest.(check (list int)) "r1 first" [ 1; 2; 3; 4; 5 ] (take r1 5);
  let r2 = Tokq.reader q in
  put_range 9 14;
  Alcotest.(check int) "total, partial block" 14 (Tokq.total_tokens q);
  Alcotest.(check (list int)) "r2 first" (List.init 12 (fun i -> i + 1)) (take r2 12);
  Alcotest.(check (list int)) "r1 second" [ 6; 7; 8; 9; 10; 11; 12 ] (take r1 7);
  put_range 15 15;
  Tokq.close q;
  Alcotest.(check int) "total after close" 15 (Tokq.total_tokens q);
  let rest1, eof1 = read_all r1 and rest2, eof2 = read_all r2 in
  Alcotest.(check (list int)) "r1 rest" [ 13; 14; 15 ] rest1;
  Alcotest.(check (list int)) "r2 rest" [ 13; 14; 15 ] rest2;
  Alcotest.(check bool) "r1 eof at token 15" true (eof1 = (tok_at 15).Token.loc);
  Alcotest.(check bool) "r2 eof at token 15" true (eof2 = (tok_at 15).Token.loc)

(* Property: any token count and block size delivers every token once,
   in order, then Eof at the last token put. *)
let prop_blocks =
  QCheck.Test.make ~name:"any block size delivers the stream" ~count:200
    QCheck.(pair (int_bound 300) (int_range 1 70))
    (fun (n, block_size) ->
      let q = filled ~block_size n in
      Tokq.close q;
      let lines, eof = read_all (Tokq.reader q) in
      lines = List.init n (fun i -> i + 1)
      && Tokq.total_tokens q = n
      && eof = if n = 0 then Loc.none else (tok_at n).Token.loc)

(* Property: any split of puts into chunks, closed at the end, delivers
   exactly the input sequence. *)
let prop_conservation =
  QCheck.Test.make ~name:"queue conserves the token sequence" ~count:100
    QCheck.(list small_nat)
    (fun xs ->
      let q = queue "q" in
      List.iter (fun n -> Tokq.put q (tok n)) xs;
      Tokq.close q;
      ints_of (Tokq.reader q) = xs)

(* ------------------------------------------------------------------ *)
(* Packed blocks *)

(* Identifiers are stored as slices of the queue's source text when
   their text is the slice at their offset, whole otherwise. *)
let packed_src = "MODULE alpha; VAR beta, Gamma: x1; BEGIN delta := omega END alpha."

let gen_loc =
  let open QCheck.Gen in
  let small = int_bound 5000 in
  (* just below, at and beyond a packing bound *)
  let edge = oneof [ return 0; return 1; return 2; small; return max_int ] in
  frequency
    [
      (6, map3 (fun line col off -> Loc.make ~line ~col ~off) small small small);
      (1, return Loc.none);
      (1, map2 (fun line col -> Loc.make ~line ~col:(65_535 + col) ~off:7) small edge);
      (1, map2 (fun line col -> Loc.make ~line:((1 lsl 20) - 1 + line) ~col ~off:7) edge small);
      ( 1,
        map (fun off -> Loc.make ~line:3 ~col:4 ~off)
          (oneof [ map (fun d -> (1 lsl 26) - 2 + d) (int_bound 4); return max_int ]) );
      (1, map2 (fun line col -> Loc.make ~line:(-line - 1) ~col ~off:(-col - 2)) small small);
    ]

let gen_packed_token =
  let open QCheck.Gen in
  let n = String.length packed_src in
  let slice =
    (* the token's text is its source slice: stored by length *)
    map3
      (fun start len (line, col) ->
        let len = 1 + (len mod (n - start)) in
        Token.make (Token.Ident (String.sub packed_src start len)) (Loc.make ~line ~col ~off:start))
      (int_bound (n - 1)) small_nat (pair small_nat small_nat)
  in
  let int_lit =
    oneof [ return min_int; return max_int; map (fun i -> -i) small_nat; small_nat; int ]
  in
  let kind =
    frequency
      [
        (2, map (fun s -> Token.Ident s) (string_size ~gen:printable (int_range 0 8)));
        (3, map (fun i -> Token.IntLit i) int_lit);
        (1, map (fun f -> Token.RealLit (Float.of_int f /. 8.)) int);
        (1, map (fun c -> Token.CharLit c) char);
        (1, map (fun s -> Token.StrLit s) (string_size ~gen:printable (int_range 0 6)));
        (3, map (fun (_, k) -> Token.Kw k) (oneofl Token.keywords));
        (3, map (fun s -> Token.Sym s) (oneofl Token.symbols));
        (1, map (fun i -> Token.SplitMark i) (oneof [ small_nat; return max_int; return min_int ]));
        (1, map (fun s -> Token.Error s) (string_size ~gen:printable (int_range 0 6)));
        (1, return Token.Eof);
      ]
  in
  frequency [ (2, slice); (5, map2 Token.make kind gen_loc) ]

(* After each put, reader A and reader B each read up to the given
   number of tokens, staying within the published blocks as a reader
   outside an engine must; after close both read to the end. *)
let prop_packed_round_trip =
  let open QCheck in
  let step = Gen.pair gen_packed_token (Gen.pair (Gen.int_bound 70) (Gen.int_bound 70)) in
  let print (bs, steps) =
    Printf.sprintf "block %d: %s" bs
      (String.concat " "
         (List.map
            (fun ((t : Token.t), _) ->
              Printf.sprintf "%s@%s/%d" (Token.describe t) (Loc.to_string t.loc) t.loc.off)
            steps))
  in
  Test.make ~name:"packed blocks read back every token put" ~count:300
    (make ~print Gen.(pair (oneofl [ 1; 4; 64 ]) (list_size (int_bound 300) step)))
    (fun (block_size, steps) ->
      let q = Tokq.create ~src:packed_src ~block_size ~barrier:false ~name:"q" in
      let put = Array.of_list (List.map fst steps) in
      let ra = Tokq.reader q and rb = Tokq.reader q in
      let got_a = ref [] and got_b = ref [] and na = ref 0 and nb = ref 0 in
      let read rd got n k =
        let published = Tokq.total_tokens q / block_size * block_size in
        for _ = 1 to min k (published - !n) do
          got := Reader.next rd :: !got;
          incr n
        done
      in
      List.iter
        (fun (tok, (ka, kb)) ->
          Tokq.put q tok;
          read ra got_a na ka;
          read rb got_b nb kb)
        steps;
      Tokq.close q;
      let rest rd got n =
        for _ = !n + 1 to Array.length put do
          got := Reader.next rd :: !got
        done;
        (List.rev !got, Reader.next rd, Reader.next rd)
      in
      let eof_loc = if put = [||] then Loc.none else put.(Array.length put - 1).Token.loc in
      List.for_all
        (fun (toks, eof1, eof2) ->
          toks = Array.to_list put && eof1 = Token.eof eof_loc && eof2 = eof1)
        [ rest ra got_a na; rest rb got_b nb ])

(* Every file of a few suite programs, lexed through a queue, reads back
   exactly as the lexer's token list. *)
let read_to_eof rd =
  let rec go acc =
    let tok = Reader.next rd in
    if Token.is_eof tok then List.rev (tok :: acc) else go (tok :: acc)
  in
  go []

let queued ~src =
  let q = Tokq.create ~src ~block_size:64 ~barrier:false ~name:"q" in
  List.iter (Tokq.put q) (Lexer.all ~file:"f" src);
  Tokq.close q;
  q

let suite_files rank =
  let module S = Mcc_core.Source_store in
  let store = Mcc_synth.Suite.program rank in
  S.main_src store
  :: (List.filter_map (S.def_src store) (S.def_names store)
     @ List.filter_map (S.impl_src store) (S.impl_names store))

let test_suite_files_round_trip () =
  List.iter
    (fun rank ->
      List.iteri
        (fun i src ->
          Alcotest.(check bool)
            (Printf.sprintf "rank %d file %d" rank i)
            true
            (read_to_eof (Tokq.reader (queued ~src)) = Lexer.all ~file:"f" src))
        (suite_files rank))
    [ 0; 9; 20 ]

(* Memory guard: a closed queue holding a lexed suite file costs at most
   2.5 words per token beyond its source text (a boxed token with its
   location and identifier text costs about 8.9). *)
let test_words_per_token () =
  let src = List.hd (suite_files 36) in
  let q = queued ~src in
  let words = Obj.reachable_words (Obj.repr q) - Obj.reachable_words (Obj.repr src) in
  let per_token = float_of_int words /. float_of_int (Tokq.total_tokens q) in
  if per_token > 2.5 then
    Alcotest.failf "%.2f words per queued token (%d tokens), more than 2.5" per_token
      (Tokq.total_tokens q)

let () =
  Alcotest.run "tokq"
    [
      ( "basic",
        [
          Alcotest.test_case "sequential use" `Quick test_direct_sequential_use;
          Alcotest.test_case "two readers" `Quick test_two_readers_independent;
          Alcotest.test_case "eof after close" `Quick test_eof_after_close;
          Alcotest.test_case "put after close" `Quick test_put_after_close_rejected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "producer/consumer race" `Quick test_concurrent_producer_consumer;
          Alcotest.test_case "barrier mode" `Quick test_barrier_queue_under_des;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "boundaries" `Quick test_block_boundaries;
          Alcotest.test_case "readers interleaved" `Quick test_readers_interleaved;
          Tutil.qtest prop_blocks;
        ] );
      ("properties", [ Tutil.qtest prop_conservation ]);
      ( "packed",
        [
          Tutil.qtest prop_packed_round_trip;
          Alcotest.test_case "suite files read back as lexed" `Quick test_suite_files_round_trip;
          Alcotest.test_case "words per queued token" `Quick test_words_per_token;
        ] );
    ]
