(** Optimal preemptive scheduling of sequential tasks under reservations.

    The related-work model of the paper (§1.3: Liu & Sanlaville [15],
    Schmidt [17]): tasks use one processor each ([q = 1]), may be preempted
    and resumed on any processor, and the number of available processors
    varies over time (here: [m − U(t)] induced by the reservations).

    Deciding whether all tasks finish by a deadline [T] is a transportation
    problem between tasks and the constant-capacity segments of the
    availability profile — an integral max-flow, so optimal *integer*
    preemptive schedules exist and are constructed here (McNaughton's
    wrap-around inside each segment). The optimum is found by binary search
    on [T].

    This gives the "price of non-preemption": the gap between the paper's
    non-preemptive model and the preemptive relaxation most earlier work
    analysed (experiment T5). *)

open Resa_core

type t = {
  makespan : int;
  intervals : (int * int) list array;
      (** Per job: disjoint half-open execution intervals, total length
          [p_j], never more than one machine at a time. *)
}

val feasible_by : Instance.t -> deadline:int -> bool
(** Max-flow feasibility: can every job complete by [deadline]? Requires all
    jobs to have [q = 1] ([Invalid_argument] otherwise). *)

val schmidt_feasible : Instance.t -> deadline:int -> bool
(** Schmidt's closed-form condition for semi-identical processors: feasible
    iff for every k, the k longest tasks fit in [∫ min(m(t), k) dt], i.e.
    [Σ_{j<=k} p_(j) <= PC_k(T)]. Equivalent to {!feasible_by} (tested). *)

val optimal : Instance.t -> t
(** Minimal-makespan preemptive schedule. *)

val validate : Instance.t -> t -> bool
(** Independent check of a claimed preemptive schedule: interval lengths sum
    to each [p_j], a job never overlaps itself, and at every instant the
    number of running jobs is within the availability. *)
