(** Piecewise-constant integer step functions over discrete time [\[0, ∞)].

    Profiles represent machine capacities and usages: the availability
    function [m(t) = m − U(t)] of an instance with reservations (paper §3.1),
    the usage [r(t)] of a schedule (appendix), or planning profiles inside
    backfilling algorithms. A profile holds a finite number of breakpoints;
    its last value extends to infinity.

    Values are plain [int]s and may be negative (differences of profiles are
    profiles); operations that interpret the profile as a capacity state
    their requirements explicitly. All functions are persistent. *)

type t

val constant : int -> t
(** The everywhere-[c] profile. *)

val of_steps : (int * int) list -> t
(** [of_steps [(t0,v0); (t1,v1); ...]] is the profile with value [vi] on
    [\[ti, t{i+1})]. Times must be distinct and >= 0; the list is sorted
    internally; the value before the smallest time defaults to the value at
    the smallest time, which must be 0. Raises [Invalid_argument] on an empty
    list, duplicate times, or if no step starts at time 0. *)

val of_breakpoints : int array -> int array -> int -> t
(** [of_breakpoints times values n] has value [values.(i)] on
    [\[times.(i), times.(i+1))] for [i < n], the last extending to
    infinity; entries from [n] on are ignored. Requires [times.(0) = 0] and
    strictly increasing times; equal neighbouring values are merged. Raises
    [Invalid_argument] otherwise. *)

val of_events : base:int -> (int * int) list -> t
(** [of_events ~base deltas] builds the sweep profile
    [t ↦ base + Σ {d | (τ,d) ∈ deltas, τ <= t}]. Event times must be >= 0;
    multiple events at one time accumulate. *)

val value_at : t -> int -> int
(** Value at time [x >= 0]. *)

val min_on : t -> lo:int -> hi:int -> int
(** Minimum value over the window [\[lo, hi)], [0 <= lo <= hi]. The empty
    window [lo = hi] yields [max_int], the identity of [min] — the same
    convention {!integral_on} (0) and {!max_on} ([min_int]) follow, so all
    window aggregates treat [lo = hi] uniformly. *)

val max_on : t -> lo:int -> hi:int -> int
(** Maximum over the window; [min_int] on the empty window. *)

val integral_on : t -> lo:int -> hi:int -> int
(** [∫_lo^hi profile], i.e. processor·time area over [\[lo, hi)]. Requires
    [0 <= lo <= hi]; 0 when [lo = hi]. *)

val min_value : t -> int
(** Global minimum (the tail segment counts). *)

val max_value : t -> int

val final_value : t -> int
(** Value of the segment extending to infinity. *)

val last_breakpoint : t -> int
(** Largest breakpoint (0 for a constant profile). *)

val add : t -> t -> t
(** Pointwise sum. *)

val sub : t -> t -> t
(** Pointwise difference. *)

val neg : t -> t

val change : t -> lo:int -> hi:int -> delta:int -> t
(** Add [delta] on the window [\[lo, hi)]; identity when [lo >= hi]. *)

val reserve : t -> start:int -> dur:int -> need:int -> t
(** [reserve p ~start ~dur ~need] subtracts [need] on [\[start, start+dur)].
    Raises [Invalid_argument] if the resulting profile would be negative
    anywhere in the window (i.e. the window did not have capacity [need]) —
    this is the checked capacity-allocation operation used by schedulers. *)

val earliest_fit : t -> from:int -> dur:int -> need:int -> int option
(** [earliest_fit p ~from ~dur ~need] is the smallest [s >= from] with
    [min_on p ~lo:s ~hi:(s+dur) >= need], if any. [None] only when the tail
    capacity is below [need] and no finite window fits. Feasible starts open
    only at breakpoints, so the result is [from] or a breakpoint.
    Requires [dur >= 1]. *)

val breakpoints : t -> int array
(** The profile's breakpoints, in increasing order, starting with 0. *)

val next_breakpoint_after : t -> int -> int option
(** Smallest breakpoint strictly greater than the given time, if any — the
    next decision instant of event-driven schedulers. *)

val to_steps : t -> (int * int) list
(** Inverse of {!of_steps}: normalized [(time, value)] segments. *)

val fold_segments : t -> init:'a -> f:('a -> lo:int -> hi:int option -> v:int -> 'a) -> 'a
(** Fold over maximal constant segments; [hi = None] for the tail segment. *)

val equal : t -> t -> bool
(** Extensional equality (normalized representations compared). *)

val pp : Format.formatter -> t -> unit
