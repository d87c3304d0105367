(** Exact single-machine scheduling with reservations by subset DP.

    On one machine every schedule is a sequence, and for a fixed set of
    already-executed jobs only the earliest completion frontier matters
    ([Timeline.earliest_fit_at] on the availability is monotone in its
    [from] argument), so a
    dynamic program over job subsets is exact: O(2ⁿ·n) time, O(2ⁿ) space.
    This reaches n ≈ 20 — far beyond the branch-and-bound on the Theorem 1
    reduction instances (n = 3k jobs), and is used by the FIG1 experiment to
    certify optima up to k = 6. *)

open Resa_core

val max_jobs : int
(** Hard size limit (20). *)

val solve : Instance.t -> Schedule.t * int
(** [solve inst] returns an optimal schedule and its makespan. Raises
    [Invalid_argument] if [Instance.m inst <> 1] or the instance has more
    than {!max_jobs} jobs. *)

val optimal_makespan : Instance.t -> int
