(** Certified lower bounds on the optimal makespan C_opt.

    Used to prune the exact solver and to compute approximation-ratio
    denominators on instances too large to solve exactly. Every bound here is
    valid for RESASCHEDULING: it never exceeds the true optimum. *)

open Resa_core

val min_time_with_area : ?cap:int -> Timeline.t -> from:int -> area:int -> int
(** Smallest [C >= from] with [∫_from^C timeline >= area], in one walk
    over the segments from [from] ([Timeline.first_reaching_area]). The
    timeline must be non-negative with a positive tail value when
    [area > 0]; a non-positive tail raises [Invalid_argument] wherever
    [from] sits. With [~cap], the walk stops as soon as the answer is known
    to be [>= cap] and returns [cap]: callers prune on [result >= bound],
    so passing [~cap:bound] never changes the outcome while bounding the
    walk. Exact whenever the true answer is below [cap]. *)

val fit_bound_on : Timeline.t -> from:int -> Job.t array -> int
(** Each listed job alone must fit somewhere at or after [from] on the
    timeline, so no schedule of them on it completes before the latest of
    their earliest feasible window ends (never below [from]). The exact
    solver calls it on the live timeline of a search node. *)

val work_bound : Instance.t -> int
(** Area argument (generalises [W/m] from Theorem 2 to reservations): the
    jobs need [W = Σ p·q] processor·time units out of the availability
    [m − U], so C_opt is at least the first instant by which that much
    area has accumulated: {!min_time_with_area} on the availability. *)

val fit_bound : Instance.t -> int
(** Each job alone cannot complete before its earliest feasible window ends
    (generalises [pmax]): {!fit_bound_on} the availability from 0. *)

val serial_bound : Instance.t -> int
(** Jobs wider than [m/2] are pairwise in conflict, hence run sequentially;
    their total duration must fit into instants where enough processors are
    available. *)

val best : Instance.t -> int
(** Maximum of all bounds above. *)
