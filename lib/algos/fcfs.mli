(** First Come First Serve, without backfilling (paper §2.2).

    Jobs are considered strictly in queue order: each job starts at the
    earliest time that is (a) not before the start of its predecessor in the
    queue and (b) feasible for its whole window against reservations and
    previously placed jobs. A wide job at the head of the queue therefore
    blocks everything behind it — the behaviour whose worst case is ratio m
    (paper §2.2) and which backfilling mitigates. *)

open Resa_core

val run : ?priority:Priority.t -> Instance.t -> Schedule.t
(** Default priority: {!Priority.Fifo} (true submission order). The result
    is always feasible. *)

val run_order : Instance.t -> int array -> Schedule.t
(** Timeline-backed: each job, in [order], takes its earliest fit not
    before its predecessor's start on the mutable {!Timeline}. This is
    {!Resa_sim.Policy.fcfs} with every job submitted at 0 (the differential
    tests hold them to the same starts), kept as an offline body because it
    runs about twice as fast as the simulator here (DESIGN.md §3). Raises
    [Invalid_argument] if [order] is not a permutation. *)

val respects_order : Instance.t -> Schedule.t -> int array -> bool
(** FCFS invariant: start times are non-decreasing along the queue order. *)
