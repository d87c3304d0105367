(** Schedules: one start time per job of an instance.

    [starts.(i)] is the start time σ_i of [Instance.job inst i]. A schedule
    is feasible when at every instant the jobs running concurrently use at
    most [m − U(t)] processors (paper §3.1). *)

type t

type violation =
  | Length_mismatch of { expected : int; got : int }
      (** The start array does not have one entry per job. *)
  | Negative_start of { job : int; start : int }
  | Overload of { time : int; used : int; capacity : int }
      (** At [time], running jobs use [used] > [capacity] processors. *)

val make : int array -> t
(** The array is copied. *)

val starts : t -> int array
(** Fresh copy of the start times. *)

val start : t -> int -> int
val n_jobs : t -> int

val completion : Instance.t -> t -> int -> int
(** [completion inst s i = start s i + p_i]. *)

val makespan : Instance.t -> t -> int
(** [max_i (σ_i + p_i)]; 0 for an empty job set. *)

val usage : Instance.t -> t -> Profile.t
(** [r(t)]: processors used by jobs (reservations excluded) — the quantity
    analysed in the paper's appendix. *)

val validate : Instance.t -> t -> (unit, violation) result
(** Full feasibility check against the instance's availability. *)

val is_feasible : Instance.t -> t -> bool

val utilization : Instance.t -> t -> float
(** Fraction of the *available* processor·time area [∫ (m − U)] actually used
    by jobs over [\[0, makespan)]; 1.0 means no available processor was ever
    idle. Returns 1.0 for an empty schedule. *)

val pp_violation : Format.formatter -> violation -> unit
