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
      ("properties", [ Tutil.qtest prop_conservation ]);
    ]
