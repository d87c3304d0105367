(** Binary min-heap of [(key, tie, value)] int triples over unboxed
    parallel arrays, ordered lexicographically by [(key, tie)]: no
    allocation per operation once the arrays have grown (by doubling).

    The engine's one priority queue: it backs {!Eventq} (key = time, tie =
    insertion sequence, so equal times pop FIFO) and the conservative
    policy's promise heap (key = promised start, value = job id).
    Single-owner mutable state. *)

type t

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
