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
(** {!Resa_sim.Policy.conservative} run by {!Resa_sim.Simulator.run_order}
    with every job submitted at time 0, in the priority's order: each job
    takes its earliest fit in the plan of its predecessors. Always
    feasible; satisfies {!no_earlier_job_delayed}. *)

val easy : ?priority:Priority.t -> Instance.t -> Schedule.t
(** Offline EASY backfilling (all jobs ready at time 0):
    {!Resa_sim.Policy.easy} run by {!Resa_sim.Simulator.run_order}, with
    head-reservation protection. *)

val no_earlier_job_delayed : Instance.t -> int array -> Schedule.t -> bool
(** Conservative-backfilling certificate: removing any suffix of the queue
    and replanning leaves every remaining start unchanged, i.e. each job got
    the earliest fit given only its predecessors. *)
