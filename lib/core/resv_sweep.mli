(** The reservation-edge sweep: the one place where a reservation set
    becomes the availability step function [m − U(t)] (DESIGN.md §7).

    The [2R] edges of [R] reservations (start [−q], stop [+q] on the free
    capacity) are packed into one int array, sorted once, accumulated and
    normalised. No tuple, list or intermediate profile is built, so an
    engine run can write the result straight into its timeline and walk
    the breakpoints as its reservation wake-ups. *)

type t = private {
  m : int;
  len : int;  (** Number of segments, at least 1. *)
  times : int array;
      (** Breakpoints in [\[0, len)]: [times.(0) = 0], strictly increasing.
          Entries from [len] on are unused. *)
  free : int array;
      (** [free.(i)] is [m − U(t)] on [\[times.(i), times.(i+1))], the last
          segment extending to infinity; adjacent values differ. *)
}

val run : m:int -> Reservation.t list -> t
(** Raises [Invalid_argument "Instance.create: reservations exceed machine
    capacity"] when [U(t) > m] somewhere, and [Invalid_argument] when a
    reservation ends after [max_int lsr (bits qmax + 1)] (the packed
    key's time field; [2^54] for 64-processor reservations). Checks
    neither [m] nor reservation ids. *)

val sort_ints : int array -> unit
(** Ascending in-place sort of an int array (a monomorphic merge sort
    through one scratch array of the same length): the sweep's edge sort,
    also behind [Instance.validate]'s id checks. *)

val availability : t -> Profile.t
(** [m − U(t)] as a persistent profile. *)

val unavailability : t -> Profile.t
(** [U(t)] as a persistent profile. *)
