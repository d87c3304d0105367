(** Oracles of {!Resa_algos.Backfill}'s offline schedulers. *)

open Resa_core

val conservative_order_reference : Instance.t -> int array -> Schedule.t
(** Original persistent-[Profile] implementation; differential-test oracle
    and bench baseline. Same schedules as
    [Resa_algos.Backfill.conservative_order]. *)

val easy_order_reference : Instance.t -> int array -> Schedule.t
(** Original persistent-[Profile] offline EASY, an event-driven sweep over
    breakpoints with head-reservation protection; differential-test oracle
    and bench baseline. Same schedules as [Resa_algos.Backfill.easy_order],
    which runs the online EASY policy with every job submitted at 0. *)
