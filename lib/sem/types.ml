(* The compiler's type representations and compatibility rules.

   Structured types (enumerations, arrays, records, pointers, sets)
   carry an identity and obey name equivalence, as in Modula-2; basic
   types and subranges are compared structurally.  An identity is the
   digest of where the type is declared (Declare.origin): the scope,
   the declaration and, for a type the declaration does not name, its
   ordinal among those it introduces.  One task analyses each scope's
   declarations in order, so identities do not depend on the schedule,
   the engine or the process, and they are what interface artifacts
   carry across compilations. *)

type uid = string

type ty =
  | TInt
  | TCard
  | TBool
  | TChar
  | TReal
  | TBitset
  | TEnum of enum_info
  | TSub of ty * int * int (* base, lo, hi *)
  | TArr of arr_info
  | TOpenArr of ty (* open-array formal: ARRAY OF elem *)
  | TRec of rec_info
  | TPtr of ptr_info
  | TSet of set_info
  | TProc of signature
  | TStrLit of int (* string literal of length n *)
  | TNil
  | TExc (* Modula-2+ EXCEPTION *)
  | TMutex (* Modula-2+ MUTEX (LOCK target) *)
  | TErr (* error type: compatible with everything, silences cascades *)

and enum_info = { euid : uid; ename : string; elems : string array }
and arr_info = { auid : uid; index : ty; lo : int; hi : int; elem : ty }
and field = { fty : ty; fslot : int }
and rec_info = { ruid : uid; rname : string; fields : (string * field) list }
and ptr_info = { puid : uid; pname : string; mutable target : ty }
and set_info = { suid : uid; sbase : ty; slo : int; shi : int }
and param = { mode_var : bool; pty : ty }
and signature = { params : param list; result : ty option }

(* A fixed-length digest, so comparing two identities takes constant
   time. *)
let uid path = Digest.string path

(* Maximum set element range: sets are compiled to a 62-bit mask. *)
let max_set_bits = 62

let rec name = function
  | TInt -> "INTEGER"
  | TCard -> "CARDINAL"
  | TBool -> "BOOLEAN"
  | TChar -> "CHAR"
  | TReal -> "REAL"
  | TBitset -> "BITSET"
  | TEnum e -> e.ename
  | TSub (b, lo, hi) -> Printf.sprintf "[%d..%d] OF %s" lo hi (name b)
  | TArr a -> Printf.sprintf "ARRAY [%d..%d] OF %s" a.lo a.hi (name a.elem)
  | TOpenArr e -> Printf.sprintf "ARRAY OF %s" (name e)
  | TRec r -> if r.rname = "" then "RECORD" else r.rname
  | TPtr p -> if p.pname = "" then "POINTER" else p.pname
  | TSet s -> Printf.sprintf "SET OF %s" (name s.sbase)
  | TProc _ -> "PROCEDURE"
  | TStrLit n -> Printf.sprintf "STRING[%d]" n
  | TNil -> "NIL"
  | TExc -> "EXCEPTION"
  | TMutex -> "MUTEX"
  | TErr -> "<error>"

(* Strip subranges down to the base type. *)
let rec base = function TSub (b, _, _) -> base b | t -> t

let is_error t = base t = TErr

(* Ordinal types: usable as array indexes, case selectors, FOR control
   variables and set bases. *)
let is_ordinal t =
  match base t with
  | TInt | TCard | TBool | TChar | TEnum _ -> true
  | TStrLit 1 -> true (* a character literal like 'A' *)
  | TErr -> true
  | _ -> false

let is_numeric t = match base t with TInt | TCard | TErr -> true | _ -> false

(* Inclusive value bounds of an ordinal type, used for subrange and FOR
   checks and for set-element ranges. *)
let bounds = function
  | TInt -> (min_int / 2, max_int / 2)
  | TCard -> (0, max_int / 2)
  | TBool -> (0, 1)
  | TChar -> (0, 255)
  | TEnum e -> (0, Array.length e.elems - 1)
  | TSub (_, lo, hi) -> (lo, hi)
  | TErr -> (0, 0)
  | t -> invalid_arg ("Types.bounds: not ordinal: " ^ name t)

(* Same type, by Modula-2 name equivalence. *)
let rec equal a b =
  match (base a, base b) with
  | TErr, _ | _, TErr -> true
  | TInt, TInt | TCard, TCard | TBool, TBool | TChar, TChar | TReal, TReal -> true
  | TBitset, TBitset -> true
  | TNil, TNil | TExc, TExc | TMutex, TMutex -> true
  | TEnum x, TEnum y -> String.equal x.euid y.euid
  | TArr x, TArr y -> String.equal x.auid y.auid
  | TRec x, TRec y -> String.equal x.ruid y.ruid
  | TPtr x, TPtr y -> String.equal x.puid y.puid
  | TSet x, TSet y -> String.equal x.suid y.suid || (equal x.sbase y.sbase && x.slo = y.slo && x.shi = y.shi)
  | TStrLit m, TStrLit n -> m = n
  | TOpenArr x, TOpenArr y -> equal x y
  | TProc sa, TProc sb -> signature_equal sa sb
  | _ -> false

and signature_equal sa sb =
  List.length sa.params = List.length sb.params
  && List.for_all2 (fun p q -> p.mode_var = q.mode_var && equal p.pty q.pty) sa.params sb.params
  &&
  match (sa.result, sb.result) with
  | None, None -> true
  | Some a, Some b -> equal a b
  | _ -> false

(* Assignment compatibility: v := e legal when the types are equal, one
   is a subrange of the other's base, INTEGER/CARDINAL mix, a character
   string of length 1 is a CHAR, a string fits a character array, or NIL
   meets a pointer. *)
let assignable ~dst ~src =
  if is_error dst || is_error src then true
  else
    equal dst src
    || (is_numeric dst && is_numeric src)
    || (base dst = TChar && match src with TStrLit 1 -> true | _ -> base src = TChar)
    || (match (base dst, base src) with
       | TArr a, TStrLit n -> equal a.elem TChar && n <= a.hi - a.lo + 1
       | TPtr _, TNil -> true
       | TProc _, TNil -> true
       | TBitset, TSet s -> s.slo >= 0 && s.shi < max_set_bits
       | TSet s, TBitset -> s.slo >= 0 && s.shi < max_set_bits
       | _ -> false)

(* Expression compatibility for binary operators and CASE labels. *)
let compatible a b =
  if is_error a || is_error b then true
  else
    equal a b
    || (is_numeric a && is_numeric b)
    || (base a = TChar && b = TStrLit 1)
    || (base b = TChar && a = TStrLit 1)
    || (match (base a, base b) with
       | TPtr _, TNil | TNil, TPtr _ -> true
       | TProc _, TNil | TNil, TProc _ -> true
       | TBitset, TSet _ | TSet _, TBitset -> true
       | _ -> false)

(* Actual-to-formal compatibility.  VAR parameters require type identity
   (the callee aliases the variable); value parameters follow assignment
   compatibility; an open-array formal accepts any array (or string, for
   ARRAY OF CHAR) with a compatible element type. *)
let param_compat ~(formal : param) ~actual =
  if is_error actual then true
  else
    match formal.pty with
    | TOpenArr elem -> (
        match base actual with
        | TArr a -> equal a.elem elem
        | TStrLit _ -> equal elem TChar
        | TOpenArr e -> equal e elem
        | _ -> false)
    | fty -> if formal.mode_var then equal fty actual else assignable ~dst:fty ~src:actual

(* Number of value slots a record field or variable of this type occupies
   in the VM: always 1 (values are boxed). *)
let size_slots (_ : ty) = 1
