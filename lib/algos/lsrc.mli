(** LSRC — list scheduling with resource constraints under reservations.

    The algorithm of Garey & Graham (1975) as analysed in the paper: keep a
    priority list of ready jobs and never leave the machine idle while the
    some listed job fits. With advance reservations, "fits at time t" means
    the job's whole execution window [\[t, t+p)] fits inside the remaining
    capacity [m − U − running]; feasible starts only open at breakpoints of
    that profile, so deciding at 0, at each completion and at each
    availability breakpoint implements the continuous-time greedy exactly
    (DESIGN.md §1). That is the online policy {!Resa_sim.Policy.aggressive}
    with every job submitted at 0: this module runs it on the simulator.

    Guarantees reproduced in this repository:
    - no reservations: makespan ≤ (2 − 1/m)·OPT (Theorem 2, appendix);
    - non-increasing reservations: ≤ (2 − 1/m(C_opt))·OPT (Proposition 1);
    - α-restricted reservations: ≤ (2/α)·OPT (Proposition 3);
      and ratios ≥ 2/α − 1 + α/2 are achievable (Proposition 2). *)

open Resa_core

val run : ?priority:Priority.t -> Instance.t -> Schedule.t
(** Schedule every job of the instance: {!Resa_sim.Simulator.run_order} of
    {!Resa_sim.Policy.aggressive} in the priority's order (default
    {!Priority.Fifo}); an explicit order goes to [Simulator.run_order]
    directly. The result is always feasible ([Schedule.validate]
    succeeds). *)

val decision_times : Instance.t -> Schedule.t -> int list
(** The event times at which the sweep made decisions when producing this
    schedule: 0, job completions and availability breakpoints up to the
    makespan. Exposed for the greediness certificate in tests. *)

val is_greedy : Instance.t -> Schedule.t -> bool
(** Certifies the list-scheduling property used by Lemma 1 of the appendix:
    at no instant could a *not-yet-started* job of the schedule have been
    started earlier than its actual start, given the jobs running and the
    availability at that instant (checked at all decision times). Any
    schedule produced by {!run} satisfies this for its own order. *)
