(** Oracle of {!Resa_algos.Fcfs.run_order}. *)

open Resa_core

val run_order_reference : Instance.t -> int array -> Schedule.t
(** Original persistent-[Profile] implementation; differential-test oracle
    and bench baseline. Same schedules as [Resa_algos.Fcfs.run_order]. *)
