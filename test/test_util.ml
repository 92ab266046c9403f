(* Unit and property tests for the utility substrate. *)

open Mcc_util

let test_vec_basic () =
  let v = Vec.create 0 in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Vec.get v 42);
  Alcotest.(check int) "last" 99 (Vec.last v);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Alcotest.(check int) "fold" (List.fold_left ( + ) 0 (Vec.to_list v)) (Vec.fold ( + ) 0 v)

let test_vec_bounds () =
  let v = Vec.create 0 in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v);
      ignore (Vec.pop v))

let test_vec_sort () =
  let v = Vec.of_list 0 [ 5; 1; 4; 2; 3 ] in
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (Vec.to_list v)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let child = Prng.split a in
  let again = Prng.create 7 in
  let _child2 = Prng.split again in
  (* drawing from the child must not perturb determinism of the parent *)
  for _ = 1 to 10 do
    ignore (Prng.int child 100)
  done;
  Alcotest.(check int) "parent stream unaffected by child draws" (Prng.int a 1_000_000)
    (Prng.int again 1_000_000)

let test_prng_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.range rng 5 9 in
    if v < 5 || v > 9 then Alcotest.failf "range out of bounds: %d" v
  done

let test_prng_weighted () =
  let rng = Prng.create 11 in
  for _ = 1 to 200 do
    let v = Prng.weighted rng [ (1, `A); (0, `B) ] in
    Alcotest.(check bool) "zero weight never drawn" true (v = `A)
  done

let test_heap_order () =
  let h = Heap.create (-1) in
  List.iter (fun (k, v) -> Heap.push h k v) [ (3.0, 3); (1.0, 1); (2.0, 2); (1.0, 10) ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        order := v :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  (* ties pop in insertion order: 1 before 10 *)
  Alcotest.(check (list int)) "min-heap order with stable ties" [ 1; 10; 2; 3 ] (List.rev !order)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in nondecreasing order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun keys ->
      let h = Heap.create 0 in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let popped = drain [] in
      List.sort compare keys = popped)

let test_deque () =
  let d = Deque.create 0 in
  Deque.push_back d 1;
  Deque.push_back d 2;
  Deque.push_front d 0;
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (Deque.to_list d);
  Alcotest.(check (option int)) "pop" (Some 0) (Deque.pop_front d);
  Alcotest.(check int) "length" 2 (Deque.length d);
  Alcotest.(check (option int)) "remove_first" (Some 2) (Deque.remove_first d (fun x -> x = 2));
  Alcotest.(check (list int)) "after remove" [ 1 ] (Deque.to_list d)

(* [remove_first] shifts in place: the survivors keep their order and
   the removed element is gone, wherever it sits in the ring. *)
let deque_of xs =
  let d = Deque.create 0 in
  List.iter (Deque.push_back d) xs;
  d

let check_removal name d x ~expect =
  Alcotest.(check (option int)) (name ^ ": result") (Some x) (Deque.remove_first d (fun y -> y = x));
  Alcotest.(check (list int)) (name ^ ": survivors in order") expect (Deque.to_list d);
  Alcotest.(check int) (name ^ ": length") (List.length expect) (Deque.length d)

let test_deque_remove_absent () =
  let d = deque_of [ 1; 2; 3 ] in
  let absent y = y = 9 in
  let w0 = Gc.minor_words () in
  let r = Deque.remove_first d absent in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (option int)) "none" None r;
  Alcotest.(check (float 0.0)) "allocates nothing" 0.0 words;
  Alcotest.(check (list int)) "untouched" [ 1; 2; 3 ] (Deque.to_list d);
  Alcotest.(check (option int)) "empty deque" None (Deque.remove_first (Deque.create 0) absent)

let test_deque_remove_first_elt () =
  check_removal "first" (deque_of [ 1; 2; 3; 4 ]) 1 ~expect:[ 2; 3; 4 ]

let test_deque_remove_last_elt () =
  let d = deque_of [ 1; 2; 3; 4 ] in
  check_removal "last" d 4 ~expect:[ 1; 2; 3 ];
  (* the freed slot is reusable *)
  Deque.push_back d 5;
  Alcotest.(check (list int)) "push after removal" [ 1; 2; 3; 5 ] (Deque.to_list d)

(* 12 pushes and 10 pops leave the head at slot 10 of the initial 16, so
   the next 10 pushes wrap around the end of the ring. *)
let test_deque_remove_wrapped () =
  let d = deque_of (List.init 12 Fun.id) in
  for _ = 1 to 10 do
    ignore (Deque.pop_front d)
  done;
  List.iter (Deque.push_back d) (List.init 10 (fun i -> 100 + i));
  let all = [ 10; 11 ] @ List.init 10 (fun i -> 100 + i) in
  Alcotest.(check (list int)) "wrapped contents" all (Deque.to_list d);
  (* 107 sits past the wrap; removing it shifts 108 and 109 *)
  check_removal "past the wrap" d 107 ~expect:(List.filter (fun x -> x <> 107) all);
  (* 11 sits before the wrap; removing it shifts elements across it *)
  check_removal "across the wrap" d 11
    ~expect:(List.filter (fun x -> x <> 107 && x <> 11) all);
  Deque.push_front d 7;
  Deque.push_back d 8;
  Alcotest.(check (list int)) "ends still work"
    ((7 :: List.filter (fun x -> x <> 107 && x <> 11) all) @ [ 8 ])
    (Deque.to_list d)

let prop_deque_fifo =
  QCheck.Test.make ~name:"deque push_back/pop_front is FIFO" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let d = Deque.create 0 in
      List.iter (Deque.push_back d) xs;
      let rec drain acc =
        match Deque.pop_front d with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = xs)

(* Deque against a list model: arbitrary interleavings of push_back,
   push_front, pop_front and remove_first (the Supervisor's "rotate a
   blocked task's resolver to the front" move) agree with the obvious
   list semantics at every step. *)
let prop_deque_model =
  let op =
    QCheck.(
      map
        (fun (k, v) -> (k mod 4, v))
        (pair small_nat small_nat))
  in
  QCheck.Test.make ~name:"deque matches its list model" ~count:300
    QCheck.(list op)
    (fun ops ->
      let d = Deque.create 0 in
      let model = ref [] in
      List.for_all
        (fun (k, v) ->
          (match k with
          | 0 ->
              Deque.push_back d v;
              model := !model @ [ v ]
          | 1 ->
              Deque.push_front d v;
              model := v :: !model
          | 2 -> (
              let got = Deque.pop_front d in
              match !model with
              | [] -> assert (got = None)
              | x :: rest ->
                  assert (got = Some x);
                  model := rest)
          | _ -> (
              (* remove the first element equal to v mod 7 — exercises
                 mid-queue removal across the ring buffer's wraparound *)
              let target = v mod 7 in
              let got = Deque.remove_first d (fun x -> x mod 7 = target) in
              let rec take = function
                | [] -> (None, [])
                | x :: rest when x mod 7 = target -> (Some x, rest)
                | x :: rest ->
                    let found, rest' = take rest in
                    (found, x :: rest')
              in
              let found, rest = take !model in
              assert (got = found);
              model := rest));
          Deque.to_list d = !model
          && Deque.length d = List.length !model
          && Deque.peek_front d = (match !model with [] -> None | x :: _ -> Some x))
        ops)

(* Heap against stable sort: equal keys must drain in insertion order
   (the property that makes simulated schedules reproducible). *)
let prop_heap_stable_drain =
  QCheck.Test.make ~name:"heap drain = stable sort by key" ~count:300
    QCheck.(list (int_bound 5))
    (fun keys ->
      let h = Heap.create 0 in
      let entries = List.mapi (fun i k -> (float_of_int k, i)) keys in
      List.iter (fun (k, v) -> Heap.push h k v) entries;
      let rec drain acc =
        match Heap.pop h with Some (k, v) -> drain ((k, v) :: acc) | None -> List.rev acc
      in
      drain [] = List.stable_sort (fun (a, _) (b, _) -> compare a b) entries)

(* Split streams are independent: draws from the child do not disturb
   the parent's sequence, for arbitrary seeds. *)
let prop_prng_split_independent =
  QCheck.Test.make ~name:"prng split independence" ~count:200 QCheck.small_nat (fun seed ->
      let undisturbed =
        let g = Prng.create seed in
        ignore (Prng.split g);
        List.init 16 (fun _ -> Prng.int g 1_000_000)
      in
      let disturbed =
        let g = Prng.create seed in
        let child = Prng.split g in
        ignore (List.init 64 (fun _ -> Prng.int child 1_000_000));
        List.init 16 (fun _ -> Prng.int g 1_000_000)
      in
      let child_draws s =
        let g = Prng.create s in
        let c = Prng.split g in
        List.init 16 (fun _ -> Prng.int c 1_000_000)
      in
      undisturbed = disturbed && child_draws seed <> undisturbed)

let test_quantile_edges () =
  (* empty: every statistic is 0 rather than an exception *)
  Alcotest.(check (float 0.0)) "empty percentile" 0.0 (Quantile.percentile 95.0 [||]);
  let mean, p50, p95, p99, maxv = Quantile.summarize [] in
  Alcotest.(check (float 0.0)) "empty mean" 0.0 mean;
  Alcotest.(check (float 0.0)) "empty p50" 0.0 p50;
  Alcotest.(check (float 0.0)) "empty p95" 0.0 p95;
  Alcotest.(check (float 0.0)) "empty p99" 0.0 p99;
  Alcotest.(check (float 0.0)) "empty max" 0.0 maxv;
  (* single element: every percentile is that element *)
  let one = Quantile.sorted_of_list [ 7.5 ] in
  Alcotest.(check (float 0.0)) "single p1" 7.5 (Quantile.percentile 1.0 one);
  Alcotest.(check (float 0.0)) "single p50" 7.5 (Quantile.percentile 50.0 one);
  Alcotest.(check (float 0.0)) "single p100" 7.5 (Quantile.percentile 100.0 one);
  let mean1, p50_1, _, _, max1 = Quantile.summarize [ 7.5 ] in
  Alcotest.(check (float 0.0)) "single mean" 7.5 mean1;
  Alcotest.(check (float 0.0)) "single summarize p50" 7.5 p50_1;
  Alcotest.(check (float 0.0)) "single summarize max" 7.5 max1

let test_quantile_exact_rank () =
  (* nearest-rank on 10 sorted samples: rank = ceil(p/100 * 10), so p50
     is the 5th element, p90 the 9th, p91..p100 the 10th — values that
     actually occurred, never interpolations. *)
  let sorted = Quantile.sorted_of_list (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.0)) "p10 = 1st" 1.0 (Quantile.percentile 10.0 sorted);
  Alcotest.(check (float 0.0)) "p50 = 5th" 5.0 (Quantile.percentile 50.0 sorted);
  Alcotest.(check (float 0.0)) "p90 = 9th" 9.0 (Quantile.percentile 90.0 sorted);
  Alcotest.(check (float 0.0)) "p91 = 10th" 10.0 (Quantile.percentile 91.0 sorted);
  Alcotest.(check (float 0.0)) "p100 = max" 10.0 (Quantile.percentile 100.0 sorted);
  (* sorted_of_list actually sorts *)
  let s = Quantile.sorted_of_list [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (float 0.0)) "unsorted input, p100" 3.0 (Quantile.percentile 100.0 s);
  Alcotest.(check (float 0.0)) "unsorted input, p33" 1.0 (Quantile.percentile 33.0 s);
  let mean, p50, p95, p99, maxv = Quantile.summarize (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.0)) "mean of 1..100" 50.5 mean;
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 p50;
  Alcotest.(check (float 0.0)) "p95 of 1..100" 95.0 p95;
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 p99;
  Alcotest.(check (float 0.0)) "max of 1..100" 100.0 maxv

let test_tablefmt () =
  let s = Tablefmt.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "contains separator" true (Tutil.contains ~sub:"|-" s);
  Alcotest.(check string) "grouped" "1,234,567" (Tablefmt.grouped 1234567);
  Alcotest.(check string) "grouped small" "999" (Tablefmt.grouped 999);
  Alcotest.(check string) "percent" "50.00" (Tablefmt.percent 1 2);
  Alcotest.(check string) "fixed" "3.14" (Tablefmt.fixed 3.14159)

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "sort" `Quick test_vec_sort;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "range bounds" `Quick test_prng_range;
          Alcotest.test_case "weighted" `Quick test_prng_weighted;
          Tutil.qtest prop_prng_split_independent;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Tutil.qtest prop_heap_sorts;
          Tutil.qtest prop_heap_stable_drain;
        ] );
      ( "deque",
        [
          Alcotest.test_case "basic" `Quick test_deque;
          Alcotest.test_case "remove absent" `Quick test_deque_remove_absent;
          Alcotest.test_case "remove first" `Quick test_deque_remove_first_elt;
          Alcotest.test_case "remove last" `Quick test_deque_remove_last_elt;
          Alcotest.test_case "remove wrapped" `Quick test_deque_remove_wrapped;
          Tutil.qtest prop_deque_fifo;
          Tutil.qtest prop_deque_model;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "edges" `Quick test_quantile_edges;
          Alcotest.test_case "exact rank" `Quick test_quantile_exact_rank;
        ] );
      ("tablefmt", [ Alcotest.test_case "render" `Quick test_tablefmt ]);
    ]
