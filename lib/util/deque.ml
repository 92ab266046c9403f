(* Double-ended queue on a growable ring buffer.

   The Supervisor's per-priority-class ready queues need FIFO order with
   an occasional "push to front" when a blocked task's resolver must run
   next (paper §2.3.4: prefer the task that signals the awaited event). *)

type 'a t = {
  mutable data : 'a array;
  mutable head : int; (* index of first element *)
  mutable len : int;
  dummy : 'a;
}

let create dummy = { data = Array.make 16 dummy; head = 0; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  for i = 0 to t.len - 1 do
    data.(i) <- t.data.((t.head + i) mod cap)
  done;
  t.data <- data;
  t.head <- 0

let push_back t x =
  if t.len = Array.length t.data then grow t;
  t.data.((t.head + t.len) mod Array.length t.data) <- x;
  t.len <- t.len + 1

let push_front t x =
  if t.len = Array.length t.data then grow t;
  let cap = Array.length t.data in
  t.head <- (t.head - 1 + cap) mod cap;
  t.data.(t.head) <- x;
  t.len <- t.len + 1

let pop_front t =
  if t.len = 0 then None
  else begin
    let x = t.data.(t.head) in
    t.data.(t.head) <- t.dummy;
    t.head <- (t.head + 1) mod Array.length t.data;
    t.len <- t.len - 1;
    Some x
  end

let peek_front t = if t.len = 0 then None else Some t.data.(t.head)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.((t.head + i) mod Array.length t.data)
  done

let to_list t =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc) t;
  List.rev !acc

(* Remove the first element satisfying [p]; returns it if present.
   In place and allocation-free: the elements after it shift one slot
   toward the head, keeping their order.  O(n) — queues are short (tens
   of tasks). *)
let remove_first t p =
  let cap = Array.length t.data in
  let i = ref 0 in
  while !i < t.len && not (p t.data.((t.head + !i) mod cap)) do
    incr i
  done;
  if !i = t.len then None
  else begin
    let x = t.data.((t.head + !i) mod cap) in
    for j = !i to t.len - 2 do
      t.data.((t.head + j) mod cap) <- t.data.((t.head + j + 1) mod cap)
    done;
    t.data.((t.head + t.len - 1) mod cap) <- t.dummy;
    t.len <- t.len - 1;
    Some x
  end
