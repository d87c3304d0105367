(** Certified lower bounds on the optimal makespan C_opt.

    Used to prune the exact solver and to compute approximation-ratio
    denominators on instances too large to solve exactly. Every bound here is
    valid for RESASCHEDULING: it never exceeds the true optimum. *)

open Resa_core

val min_time_with_area : Profile.t -> from:int -> area:int -> int
(** Smallest [C >= from] with [∫_from^C profile >= area]. The profile must be
    non-negative with positive tail value when [area > 0]; a non-positive
    tail raises [Invalid_argument] regardless of where [from] sits. *)

val min_time_with_area_tl : ?cap:int -> Timeline.t -> from:int -> area:int -> int
(** Timeline-native twin of {!min_time_with_area}, queried against the live
    capacity timeline of the speculative exact solver (one walk via
    [Timeline.first_reaching_area] instead of per-segment profile
    searches). With [~cap], the scan stops as soon as the answer is known to
    be [>= cap] and returns [cap] — callers prune on [result >= bound], so
    passing [~cap:bound] never changes the outcome while bounding the walk.
    Exact whenever the true answer is below [cap]. *)

val fit_bound_tl : Timeline.t -> from:int -> Job.t array -> int
(** Timeline-native generalisation of {!fit_bound} to a partial schedule:
    each listed job alone must fit somewhere at or after [from] on the live
    timeline, so no completion of the search node can beat the latest of
    their earliest feasible window ends (never below [from]). *)

val work_bound : Instance.t -> int
(** Area argument (generalises [W/m] from Theorem 2 to reservations): the
    jobs need [W = Σ p·q] processor·time units out of the availability
    [m − U], so C_opt is at least the first instant by which that much
    area has accumulated. *)

val fit_bound : Instance.t -> int
(** Each job alone cannot complete before its earliest feasible window ends
    (generalises [pmax]). *)

val serial_bound : Instance.t -> int
(** Jobs wider than [m/2] are pairwise in conflict, hence run sequentially;
    their total duration must fit into instants where enough processors are
    available. *)

val best : Instance.t -> int
(** Maximum of all bounds above. *)
