(** Machine-checked version of the appendix ("Revisiting Graham's bound").

    For a list schedule of a reservation-free instance, Lemma 1 states that
    any two instants more than [pmax] apart (both before the makespan) see
    more than [m] busy processors in total; integrating it yields
    Theorem 2's [2 − 1/m] guarantee. These functions recompute [r(t)] from a
    concrete schedule and verify both statements exactly, which both tests
    and the FIG-level experiments use as independent certificates. *)

open Resa_core

val lemma1_witness : Instance.t -> Schedule.t -> (int * int) option
(** [lemma1_witness inst sched] searches for a violating pair: times
    [t' >= t + pmax], both in [\[0, makespan)], with [r(t) + r(t') <= m].
    [None] means Lemma 1 holds for this schedule. Requires a reservation-free
    instance ([Invalid_argument] otherwise). *)

val lemma1_holds : Instance.t -> Schedule.t -> bool

type certificate = {
  makespan : int;
  opt_bound : int;  (** The C value the schedule is compared against. *)
  work : int;
  graham_rhs : float;  (** (2 − 1/m)·C. *)
  holds : bool;  (** makespan <= (2 − 1/m)·C. *)
}

val theorem2_certificate : Instance.t -> Schedule.t -> opt:int -> certificate
(** Checks the Theorem 2 inequality [C_lsrc <= (2 − 1/m)·opt] against a
    claimed optimal (or lower-bound) value [opt]. *)

type integral_certificate = {
  c_list : int;  (** The list schedule's makespan C_A. *)
  c_opt : int;  (** The reference optimum Copt. *)
  x_integral : int;
      (** The proof's X = ∫₀^{C_A−Copt} r(t) dt + ∫_{Copt}^{C_A} r(t) dt
          (note (1−x)·Copt = C_A − Copt in the proof's notation). *)
  lemma1_lhs : int;  (** (m+1)·(C_A − Copt): Lemma 1 forces X ≥ this. *)
  work_rhs : int;  (** W − (2Copt − C_A): the rearrangement bounds X ≤ this. *)
  total_work : int;  (** W(I) ≤ m·Copt closes the chain. *)
  chain_holds : bool;
      (** All three inequalities of the appendix proof, evaluated in exact
          integer arithmetic on this very schedule. *)
}

val theorem2_integral_certificate :
  Instance.t -> Schedule.t -> opt:int -> integral_certificate
(** Replays the appendix proof of Theorem 2 numerically: integrates the
    measured [r(t)] over the proof's two windows and checks the inequality
    chain [(m+1)(C_A − Copt) ≤ X ≤ W − (2Copt − C_A)] and [W ≤ m·Copt]. When
    [C_A ≤ Copt] the chain is vacuous and [chain_holds] is true. Requires a
    reservation-free instance, a feasible *greedy* schedule, and [opt >=
    pmax] (as in the proof). *)
