(* The vm-kernels programs: where each source lives, how its ReadInt
   inputs are drawn from the seed, and an OCaml reference that computes
   the output the compiled program must print.  The references share no
   code with the compiler or the VM.

   Sizes whose cost is linear vary by at most 1% across seeds; Fib and
   MatMul keep a fixed size (their cost is exponential and cubic in it)
   and draw only their data, so one pass costs the same on every seed. *)

module Prng = Mcc_util.Prng

type t = {
  name : string;  (** module name; the source is [kernels/<name>.mod] *)
  inputs : Prng.t -> int list;
  reference : int list -> string;
}

let lcg s = ((s * 1103515245) + 12345) mod 2147483648
let bad name = invalid_arg ("Kernels." ^ name ^ ": wrong input count")

let fib =
  {
    name = "Fib";
    inputs = (fun r -> [ 22; Prng.range r 1000 1_000_000 ]);
    reference =
      (function
      | [ n; m ] ->
          let rec f k = if k < 2 then k else (f (k - 1) + f (k - 2)) mod m in
          Printf.sprintf "%d\n" (f n)
      | _ -> bad "fib");
  }

let sieve =
  {
    name = "Sieve";
    inputs = (fun r -> [ 30000 + Prng.int r 300 ]);
    reference =
      (function
      | [ n ] ->
          let flags = Array.make (n + 1) true in
          let count = ref 0 and sum = ref 0 in
          for i = 2 to n do
            if flags.(i) then begin
              incr count;
              sum := (!sum + i) mod 1000003;
              let j = ref (i * i) in
              while !j <= n do
                flags.(!j) <- false;
                j := !j + i
              done
            end
          done;
          Printf.sprintf "%d %d\n" !count !sum
      | _ -> bad "sieve");
  }

let matmul =
  {
    name = "MatMul";
    inputs = (fun r -> [ 32; Prng.range r 1 2_000_000_000 ]);
    reference =
      (function
      | [ n; seed ] ->
          let s = ref seed in
          let next () =
            s := lcg !s;
            !s mod 100
          in
          let a = Array.make_matrix n n 0 and b = Array.make_matrix n n 0 in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              a.(i).(j) <- next ();
              b.(i).(j) <- next ()
            done
          done;
          let check = ref 0 in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              let c = ref 0 in
              for k = 0 to n - 1 do
                c := !c + (a.(i).(k) * b.(k).(j))
              done;
              check := ((!check * 31) + !c) mod 1000000007
            done
          done;
          Printf.sprintf "%d\n" !check
      | _ -> bad "matmul");
  }

let lists =
  {
    name = "Lists";
    inputs = (fun r -> [ 20000 + Prng.int r 200; Prng.range r 1 2_000_000_000 ]);
    reference =
      (function
      | [ n; seed ] ->
          let s = ref seed and sum = ref 0 and max = ref 0 in
          for i = 1 to n do
            s := lcg !s;
            let v = !s mod 1000 in
            sum := (!sum + (i * v)) mod 1000000007;
            if v > !max then max := v
          done;
          Printf.sprintf "%d %d\n" !sum !max
      | _ -> bad "lists");
  }

let raise_ =
  {
    name = "Raise";
    inputs = (fun r -> [ 20000 + Prng.int r 200; Prng.int r 1000 ]);
    reference =
      (function
      | [ n; offset ] ->
          let acc = ref 0 and normal = ref 0 and caught = ref 0 in
          for i = 1 to n do
            let x = i + offset in
            if x mod 5 = 0 then incr caught
            else if x mod 7 = 3 then acc := (!acc + 1) mod 1000003
            else begin
              acc := (!acc + (x * 2)) mod 1000003;
              incr normal
            end
          done;
          Printf.sprintf "%d %d %d\n" !acc !normal !caught
      | _ -> bad "raise");
  }

let shapes =
  {
    name = "Shapes";
    inputs = (fun r -> [ 200 + Prng.int r 2; Prng.range r 1 2_000_000_000 ]);
    reference =
      (function
      | [ rounds; seed ] ->
          let s = ref seed in
          let next () =
            s := lcg !s;
            !s mod 1000
          in
          let shape () =
            let kind = next () mod 4 in
            let w = (next () mod 50) + 1 in
            let h = (next () mod 50) + 1 in
            let t1 = next () mod 32 in
            let t2 = next () mod 32 in
            (kind, w, h, [ t1; t2 ])
          in
          let all = Array.init 64 (fun _ -> shape ()) in
          let area = ref 0 and tagged = ref 0 in
          for r = 1 to rounds do
            Array.iter
              (fun (kind, w, h, tags) ->
                (area :=
                   !area
                   +
                   match kind with
                   | 0 -> w * h
                   | 1 -> w * h / 2
                   | 2 -> w * w
                   | _ -> h);
                if List.mem (r mod 32) tags then incr tagged;
                area := !area mod 1000003)
              all
          done;
          Printf.sprintf "%d %d\n" !area !tagged
      | _ -> bad "shapes");
  }

let all = [ fib; sieve; matmul; lists; raise_; shapes ]
