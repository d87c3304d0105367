(** Unboxed calendar event queue: the simulator's time-ordered event set
    with zero allocation per operation in steady state.

    Entries are [(time, payload)] pairs with integer payloads (the
    simulator encodes [Wake] as [-1] and a completion as the job's live
    slot index [>= 0]), ordered by time with ties broken by insertion
    order — the FIFO determinism contract the simulator relies on, held to
    a sorted-list model by the differential suite in test/test_eventq.ml.

    Layout: a ring of [2^15] width-1 buckets indexed by [time land mask]
    covers the moving window [\[cursor, cursor + 2^15)]; each bucket is a
    singly-linked chain through a growable parallel-int-array cell pool
    (time/seq/payload/next, recycled through a free list), and a bitmap
    (one bit per bucket) makes "first occupied bucket at or after the
    cursor" a word-scan. Events beyond the window overflow into an
    {!Int_heap} on [(time, seq)] and migrate into buckets as the
    cursor advances past [time - 2^15] — so the bucket ring never resizes;
    only the cell pool and the overflow heap grow (by doubling). The
    cursor only moves forward except on the (simulator-impossible,
    test-exercised) push of an event before it, which rebases the window
    in one sweep.

    Single-owner mutable state, like every engine structure. *)

type t

val create : unit -> t

val is_empty : t -> bool

val size : t -> int
(** Number of queued events, O(1). *)

val push : t -> time:int -> int -> unit
(** Enqueue a payload at [time]. Raises [Invalid_argument] on negative
    time. *)

val peek_time : t -> int
(** Earliest queued timestamp without removing it, or [-1] when empty —
    allocation-free by construction. *)

val pop : t -> int
(** Remove the earliest event — ties FIFO by insertion order — and return
    its payload. Raises [Invalid_argument] when empty; pair with
    {!peek_time} for the timestamp. *)

val clear : t -> unit
(** Empty the queue and reset insertion-order numbering. *)

val impl_name : string
(** Implementation tag stamped into bench JSON rows, so trajectory
    comparisons across event-queue changes stay interpretable. *)
