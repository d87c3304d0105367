(** Advance-reservation admission under the α cap.

    Production batch systems "impose a limit on the reservation feature to
    ensure a good behavior of the system" (paper §1.4, §4.2). The book
    accepts a reservation request only if the total blocked capacity stays
    within [(1−α)·m] at every instant, which keeps the workload inside
    α-RESASCHEDULING and therefore inside LSRC's [2/α] guarantee.

    The book keeps its free capacity [(1−α)·m − blocked] as a {!Timeline.t}
    and admits a request with one checked {!Timeline.reserve}, so each
    request costs O(log R + B) on R granted reservations held in B blocks;
    [Resa_gen.Random_inst.alpha_restricted] admits its reservations through it. *)

type t

type rejection =
  | Too_wide of { q : int; cap : int }
      (** The request alone exceeds the per-instant cap. *)
  | Saturated of { time : int; blocked : int; cap : int }
      (** Granting it would block more than the cap at [time], the first
          such instant of the window; [blocked] is what the granted
          reservations block there. *)

val create : ?obs:Resa_obs.Trace.t -> m:int -> alpha:float -> unit -> t
(** Requires [m >= 1] and [alpha ∈ (0, 1]]. With a live tracer [?obs]
    (default {!Resa_obs.Trace.null}), every admission decision is emitted as
    a {!Resa_obs.Trace.Resv_accept} (with the granted id) or
    {!Resa_obs.Trace.Resv_reject} (with the rendered rejection reason). *)

val cap : t -> int
(** The per-instant blocked-capacity budget [⌊(1−α)·m⌋]. *)

val request : t -> start:int -> p:int -> q:int -> (Reservation.t, rejection) result
(** Grant or reject; granted reservations get consecutive ids and are
    remembered. Raises [Invalid_argument] with {!Reservation.make}'s
    message, and leaves the book unchanged, when [start < 0], [p < 1] or
    [q < 1]. *)

val accepted : t -> Reservation.t list
(** Granted reservations, in grant order. *)

val blocked_profile : t -> Profile.t
(** Current total blocked capacity over time, built from the timeline
    (O(segments) per call). *)

val pp_rejection : Format.formatter -> rejection -> unit
