(** Oracle of {!Resa_exact.Single_machine.solve}. *)

open Resa_core

val solve_reference : Instance.t -> Schedule.t * int
(** The original subset DP on the persistent availability profile; the
    same schedule and makespan as [Single_machine.solve]. *)
