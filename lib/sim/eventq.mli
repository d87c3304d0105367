(** The simulator's time-ordered event set: [(time, payload)] pairs with
    integer payloads (the simulator encodes a wake-up as [-1] and a
    completion as the job's live slot index [>= 0]), popped by time with
    ties broken by insertion order. That FIFO contract keeps traces
    deterministic; test/test_eventq.ml holds it to a sorted-list model.

    A thin wrapper over {!Int_heap} keyed on [(time, insertion seq)]: no
    allocation per operation once the heap has grown. Single-owner mutable
    state, like every engine structure. *)

type t

val create : unit -> t
val is_empty : t -> bool

val size : t -> int
(** Number of queued events, O(1). *)

val push : t -> time:int -> int -> unit
(** Enqueue a payload at [time]. Raises [Invalid_argument] on negative
    time. *)

val peek_time : t -> int
(** Earliest queued timestamp without removing it, or [-1] when empty. *)

val pop : t -> int
(** Remove the earliest event (ties FIFO) and return its payload. Raises
    [Invalid_argument] when empty; pair with {!peek_time} for the time. *)
