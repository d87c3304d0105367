(** Oracle of [Resa_core.Reservation_book]: the original persistent-[Profile]
    book, O(R) per request on R granted reservations. Same decisions, same
    [Saturated] instants and the same trace events as the timeline book on
    valid requests ([start >= 0], [p >= 1], [q >= 1]); the differential
    test in [test/test_sim.ml] holds the two together. *)

open Resa_core

type t

type rejection = Reservation_book.rejection =
  | Too_wide of { q : int; cap : int }
  | Saturated of { time : int; blocked : int; cap : int }

val create : ?obs:Resa_obs.Trace.t -> m:int -> alpha:float -> unit -> t
val cap : t -> int
val request : t -> start:int -> p:int -> q:int -> (Reservation.t, rejection) result
val accepted : t -> Reservation.t list
val blocked_profile : t -> Profile.t
val pp_rejection : Format.formatter -> rejection -> unit
