(* Tests for token queues: producer/consumer blocks, events, multiple
   readers, behaviour under the DES engine. *)

open Mcc_m2
open Mcc_sched

let tok n = Token.make (Token.IntLit n) Loc.none
let queue name = Tokq.create ~block_size:64 ~barrier:false ~name

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
  let q = Tokq.create ~block_size:64 ~barrier:true ~name:"q" in
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
  let q = Tokq.create ~block_size ~barrier:false ~name:"q" in
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
  let q = Tokq.create ~block_size:4 ~barrier:false ~name:"q" in
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
    ]
