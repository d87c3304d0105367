(** Problem instances of RESASCHEDULING (paper §3.1).

    An instance is a machine count [m], an array of rigid jobs and an array
    of advance reservations. Feasibility of the reservation set
    ([∀t, U(t) <= m]) is checked at construction. RIGIDSCHEDULING (paper §2)
    is the special case with no reservations. Construction sweeps the
    reservations once into the availability profile
    ({!Profile.of_reservations}), the instance's one cached step function:
    {!unavailability}, {!umax} and the α interval are derived from it.

    Jobs are indexed by their position in {!jobs}; schedules are arrays of
    start times parallel to that array. *)

type t

val create :
  m:int -> jobs:Job.t list -> reservations:Reservation.t list -> (t, string) result
(** Checks: [m >= 1]; every job fits the machine ([q <= m]); job ids are
    distinct; reservation ids are distinct; the reservations alone never
    exceed [m] processors, and end within the sweep's packed time range
    (see {!Profile.of_reservations}). *)

val validate :
  m:int -> jobs:Job.t list -> reservations:Reservation.t list -> (unit, string) result
(** Every check of {!create} but the sweep's (capacity and time range),
    in the same order and with the same messages — for consumers that
    sweep the reservations themselves with {!availability_of}, which raises
    the rest, and never build an instance. *)

val create_exn : m:int -> jobs:Job.t list -> reservations:Reservation.t list -> t
(** Like {!create}; raises [Invalid_argument] with the error message. *)

val of_sizes : m:int -> ?reservations:(int * int * int) list -> (int * int) list -> t
(** [of_sizes ~m ~reservations:[(start,p,q);...] [(p,q);...]] numbers jobs
    and reservations consecutively from 0 — the convenient literal syntax
    used by tests and examples. Raises on invalid data. *)

val m : t -> int
val n_jobs : t -> int
val n_reservations : t -> int

val job : t -> int -> Job.t
(** [job t i] for [0 <= i < n_jobs t]. *)

val jobs : t -> Job.t array
(** Fresh copy of the job array. *)

val reservations : t -> Reservation.t array
(** Fresh copy, sorted chronologically. *)

val unavailability : t -> Profile.t
(** [U(t) = m − availability]: processors blocked by reservations at time
    [t]. Derived from {!availability} on each call. *)

val availability : t -> Profile.t
(** [m(t) = m − U(t)], the capacity the scheduler may use: the profile
    {!Profile.of_reservations} swept in {!create}, and the instance's one
    copy of its reservations' step function. Cached in the instance
    (profiles are persistent), so repeated calls return the same value
    without reallocating; an engine run over the instance starts from it. *)

val availability_of : m:int -> reservations:Reservation.t list -> Profile.t
(** [m − U(t)] computed directly from a reservation list by
    {!Profile.of_reservations}, without constructing an instance. Agrees
    with {!availability} on [create_exn ~m ~jobs:_ ~reservations]. Checks
    the capacity (raising [Invalid_argument] with {!create}'s message) but
    neither [m] nor the ids. *)

val total_work : t -> int
(** [W(I) = Σ p_i·q_i] over jobs (reservations excluded). *)

val pmax : t -> int
(** Longest job duration; 0 when there are no jobs. *)

val qmax : t -> int
(** Widest job; 0 when there are no jobs. *)

val umax : t -> int
(** Peak unavailability [max_t U(t) = m − min_t m(t)]. *)

val horizon : t -> int
(** End of the last reservation (0 if none) — after this instant the full
    machine is available forever. *)

val alpha_interval : t -> (float * float) option
(** The set of [α] for which the instance belongs to α-RESASCHEDULING is the
    interval [\[qmax/m, 1 − umax/m\]] (∩ (0,1]); [None] when empty. *)

val is_alpha_restricted : t -> alpha:float -> bool
(** [∀t, U(t) <= (1−α)m] and [∀i, q_i <= αm] (paper §4.2). *)

val with_jobs : t -> Job.t list -> t
(** Same machine and reservations, replaced job set (ids renumbered). *)

val pp : Format.formatter -> t -> unit
