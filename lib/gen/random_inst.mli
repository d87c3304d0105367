(** Random workload generators.

    Two families:
    - [alpha_restricted]: uniformly random jobs and reservations constrained
      to α-RESASCHEDULING (paper §4.2) — used for the T2 ratio sweeps;
    - [cluster_workload]: jobs shaped like batch-cluster traces
      (power-of-two-biased widths, log-uniform runtimes), the synthetic
      substitute for production traces (DESIGN.md §5);
    - [non_increasing]: random instances whose reservations form a
      non-increasing staircase (paper §4.1), for the FIG2 experiment. *)

open Resa_core

val alpha_restricted :
  Prng.t ->
  m:int ->
  n:int ->
  alpha:float ->
  pmax:int ->
  ?n_reservations:int ->
  ?horizon:int ->
  unit ->
  Instance.t
(** Jobs: [q] uniform in [\[1, ⌊αm⌋\]], [p] uniform in [\[1, pmax\]].
    Reservations: up to [n_reservations] (default [n/4]) random windows in
    [\[0, horizon)] (default [n·pmax/2 + 1]), each admitted through a
    {!Resa_core.Reservation_book} of the same [m] and [alpha], so kept only
    if the total unavailability stays within [(1−α)m]; the ids are the
    grant order. The result always satisfies
    [Instance.is_alpha_restricted ~alpha]. Requires [⌊αm⌋ >= 1]. *)

val cluster_workload :
  Prng.t -> m:int -> n:int -> max_runtime:int -> Instance.t
(** Reservation-free workload with power-of-two-biased widths (clamped to
    [m]) and log-uniform runtimes in [\[1, max_runtime\]]. *)

val non_increasing :
  Prng.t -> m:int -> n:int -> pmax:int -> levels:int -> Instance.t
(** Random jobs plus a random non-increasing unavailability staircase with
    at most [levels] descending steps; [U(0) <= m − 1] so at least one
    processor is always available. Satisfies
    [Transform.is_non_increasing]. *)
