(** Double-ended queues on growable ring buffers.

    The Supervisor's per-priority-class ready queues need FIFO order with
    an occasional push-to-front when a blocked task's resolver must run
    next (paper §2.3.4). *)

type 'a t

val create : 'a -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push_back : 'a t -> 'a -> unit
val push_front : 'a t -> 'a -> unit
val pop_front : 'a t -> 'a option
val peek_front : 'a t -> 'a option
val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list

(** Remove and return the first element satisfying the predicate,
    shifting the later elements in place (order kept, nothing
    allocated but the result).  O(n); the Supervisor's queues hold at
    most tens of tasks. *)
val remove_first : 'a t -> ('a -> bool) -> 'a option
