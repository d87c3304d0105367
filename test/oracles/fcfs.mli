(** Oracle of offline FCFS: [Resa_sim.Simulator.run_order] of
    [Policy.fcfs]. *)

open Resa_core

val run_order_reference : Instance.t -> int array -> Schedule.t
(** Original persistent-[Profile] implementation; differential-test oracle
    and bench baseline. Same schedules as
    [Simulator.run_order ~policy:Policy.fcfs]. *)
