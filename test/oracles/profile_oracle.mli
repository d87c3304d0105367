(** {!Resa_core.Profile} with the persistent scheduling operations it used
    to carry. Every scheduler in [lib/] runs on [Timeline]; these are the
    oracles' step-function operations and the reference the "= Profile"
    properties of [test/test_timeline.ml] hold [Timeline] to. They read
    the profile's arrays in place. *)

include module type of struct
  include Resa_core.Profile
end

val min_on : t -> lo:int -> hi:int -> int
(** Minimum value over the window [\[lo, hi)], [0 <= lo <= hi]. The empty
    window [lo = hi] yields [max_int], the identity of [min] — the same
    convention [integral_on] (0) and [max_on] ([min_int]) follow. *)

val max_value : t -> int
(** Global maximum (the tail segment counts). *)

val final_value : t -> int
(** Value of the segment extending to infinity. *)

val last_breakpoint : t -> int
(** Largest breakpoint (0 for a constant profile). *)

val add : t -> t -> t
(** Pointwise sum. *)

val neg : t -> t

val change : t -> lo:int -> hi:int -> delta:int -> t
(** Add [delta] on the window [\[lo, hi)]; identity when [lo >= hi]. *)

val reserve : t -> start:int -> dur:int -> need:int -> t
(** [reserve p ~start ~dur ~need] subtracts [need] on [\[start, start+dur)].
    Raises [Invalid_argument] if the resulting profile would be negative
    anywhere in the window (i.e. the window did not have capacity
    [need]). *)

val earliest_fit : t -> from:int -> dur:int -> need:int -> int option
(** [earliest_fit p ~from ~dur ~need] is the smallest [s >= from] with
    [min_on p ~lo:s ~hi:(s+dur) >= need], if any. [None] only when the tail
    capacity is below [need] and no finite window fits. Feasible starts open
    only at breakpoints, so the result is [from] or a breakpoint.
    Requires [dur >= 1]. *)

val next_breakpoint_after : t -> int -> int option
(** Smallest breakpoint strictly greater than the given time, if any — the
    next decision instant of event-driven schedulers. *)

val equal : t -> t -> bool
(** Extensional equality (normalized representations compared). *)
