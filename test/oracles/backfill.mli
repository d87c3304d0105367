(** Oracles of {!Resa_algos.Backfill}'s offline schedulers and its
    certificate. *)

open Resa_core

val conservative_order_reference : Instance.t -> int array -> Schedule.t
(** Original persistent-[Profile] implementation; differential-test oracle
    and bench baseline. Same schedules as
    [Simulator.run_order ~policy:Policy.conservative]. *)

val easy_order_reference : Instance.t -> int array -> Schedule.t
(** Original persistent-[Profile] offline EASY, an event-driven sweep over
    breakpoints with head-reservation protection; differential-test oracle
    and bench baseline. Same schedules as
    [Simulator.run_order ~policy:Policy.easy], which runs the online EASY
    policy with every job submitted at 0. *)

val no_earlier_job_delayed_reference : Instance.t -> int array -> Schedule.t -> bool
(** Original persistent-[Profile] conservative-backfilling certificate;
    the same verdict as [Backfill.no_earlier_job_delayed]. *)
