(** Arrival-time streams for the online algorithms and the simulator. *)

open Resa_core

val poisson : Prng.t -> n:int -> mean_gap:float -> int array
(** [n] non-decreasing integer arrival times with exponential
    inter-arrival gaps of the given mean (> 0); first arrival at time 0. *)
