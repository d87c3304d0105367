(** First Come First Serve, without backfilling (paper §2.2).

    Jobs are considered strictly in queue order: each job starts at the
    earliest time that is (a) not before the start of its predecessor in the
    queue and (b) feasible for its whole window against reservations and
    previously placed jobs. A wide job at the head of the queue therefore
    blocks everything behind it — the behaviour whose worst case is ratio m
    (paper §2.2) and which backfilling mitigates. *)

open Resa_core

val run : ?priority:Priority.t -> Instance.t -> Schedule.t
(** {!Resa_sim.Simulator.run_order} of {!Resa_sim.Policy.fcfs}: each job,
    in the priority's order (default {!Priority.Fifo}, true submission
    order), submitted at time 0, takes its earliest fit not before its
    predecessor's start. The result is always feasible. *)

val respects_order : Schedule.t -> int array -> bool
(** FCFS invariant: start times are non-decreasing along the queue order. *)
