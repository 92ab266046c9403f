(* Binary min-heap with deterministic tie-breaking.

   The discrete-event simulation engine keys its agenda on (virtual time,
   insertion sequence number) so that simultaneous events pop in insertion
   order — a requirement for bit-for-bit deterministic traces. *)

type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
  vacant : 'a entry; (* fills unused slots; shared, so a pop allocates none *)
}

let create dummy =
  let vacant = { key = 0.0; seq = 0; value = dummy } in
  { data = Array.make 64 vacant; len = 0; next_seq = 0; vacant }

let length t = t.len
let is_empty t = t.len = 0

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && less t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.len && less t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t key value =
  if t.len = Array.length t.data then begin
    let data = Array.make (2 * t.len) t.data.(0) in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- { key; seq = t.next_seq; value };
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let peek t = if t.len = 0 then None else Some (t.data.(0).key, t.data.(0).value)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    t.data.(0) <- t.data.(t.len);
    t.data.(t.len) <- t.vacant;
    if t.len > 0 then sift_down t 0;
    Some (top.key, top.value)
  end
