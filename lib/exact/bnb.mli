(** Exact optimal makespan by branch and bound.

    Chronological depth-first search: jobs are placed in order of
    non-decreasing start time, and by the left-shift dominance argument
    (DESIGN.md §3) candidate starts are restricted to time 0, breakpoints of
    the availability profile and completion times of already-placed jobs.
    Pruning: availability-aware lower bounds ({!Lower_bounds}), an LSRC /
    backfilling incumbent, and symmetry breaking on identical jobs.

    {!solve} is the speculative solver (DESIGN.md §8): one mutable
    {!Timeline} per search worker with checkpoint/rollback around every
    placement trial, incrementally maintained candidate decision times, and
    deterministic parallel root splitting over {!Resa_par} — results are
    bit-identical at any [RESA_DOMAINS]. Its oracle, the frozen
    persistent-profile solver, lives in [test/oracles]: both always agree on
    [makespan] and [optimal] (schedules may differ between the two — each is
    feasible and achieves the reported makespan — because the speculative
    solver uses a strictly stronger chain-twin symmetry rule).

    Exact up to ~9–10 jobs plus reservations — the sizes needed for ratio
    measurements; beyond that, set a node budget and treat the result as an
    upper bound. *)

open Resa_core

type result = {
  makespan : int;  (** Best makespan found. *)
  schedule : Schedule.t;  (** A feasible schedule achieving it. *)
  optimal : bool;  (** Whether the search ran to completion. *)
  nodes : int;  (** Nodes expanded. *)
}

val solve : ?node_limit:int -> Instance.t -> result
(** Default node limit: 2_000_000. The returned schedule is always feasible;
    [optimal = true] certifies [makespan] is the true C_opt. Deterministic:
    the full result record (including [nodes] and the schedule's starts) is
    independent of the pool size. *)
