(** Backfilling variants (paper §2.2).

    - {e Conservative}: every job, in queue order, is planned at the earliest
      start that delays no previously planned job. Equivalent to inserting
      each job at its earliest fit in the running capacity plan.
    - {e EASY} (aggressive): only the queue head holds a guaranteed start
      ("pull reservation"); any later job may jump the queue if starting it
      now does not push the head's guaranteed start. More aggressive than
      conservative, less than LSRC (which lets anything delay anything, the
      paper's "most aggressive variant"). *)

open Resa_core

val conservative : ?priority:Priority.t -> Instance.t -> Schedule.t
(** Always feasible; satisfies {!no_earlier_job_delayed}. *)

val conservative_order : Instance.t -> int array -> Schedule.t
(** Timeline-backed: each job, in [order], takes its earliest fit on the
    mutable {!Timeline}. This is {!Resa_sim.Policy.conservative} with every
    job submitted at 0 (the differential tests hold them to the same
    starts), kept as an offline body because the simulator, which plans
    every job and then reserves it again when it starts, takes 1.4–3.2x
    as long here (DESIGN.md §3). Raises [Invalid_argument] if [order] is
    not a permutation. *)

val easy : ?priority:Priority.t -> Instance.t -> Schedule.t
(** Offline EASY backfilling (all jobs ready at time 0): the online policy
    under the simulator, with head-reservation protection. *)

val easy_order : Instance.t -> int array -> Schedule.t
(** {!Resa_sim.Policy.easy} run by the simulator with every job submitted
    at time 0, in [order]. Raises [Invalid_argument] if [order] is not a
    permutation. *)

val no_earlier_job_delayed : Instance.t -> int array -> Schedule.t -> bool
(** Conservative-backfilling certificate: removing any suffix of the queue
    and replanning leaves every remaining start unchanged, i.e. each job got
    the earliest fit given only its predecessors. *)
