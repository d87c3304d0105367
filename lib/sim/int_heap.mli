(** Binary min-heap of [(key, tie, value)] int triples interleaved in one
    unboxed array, ordered lexicographically by [(key, tie)]: no
    allocation per operation once the array has grown (by doubling).

    The engine's one priority queue: it backs {!Eventq} (key = time, tie =
    insertion sequence, so equal times pop FIFO) and the conservative
    policy's promise heap (key = promised start, tie = admission order,
    value = tag).
    Single-owner mutable state. *)

type t = private { mutable a : int array; mutable len : int }
(** [len] triples, the one at index [i] in [a.(3i)], [a.(3i+1)] and
    [a.(3i+2)]; the minimum is at index 0. Readable so that a caller on the
    event loop's path can peek without a call. *)

val create : unit -> t

val length : t -> int

val push : t -> key:int -> tie:int -> int -> unit

val min_key : t -> int
(** Key of the minimum. The three [min_*] readers require a non-empty
    heap; their result is unspecified otherwise. *)

val min_tie : t -> int
val min_value : t -> int

val drop_min : t -> unit
(** Remove the minimum; no-op on an empty heap. *)

val clear : t -> unit
