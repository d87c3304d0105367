(** Piecewise-constant integer step functions over discrete time [\[0, ∞)]:
    the model's objects.

    Profiles represent the availability function [m(t) = m − U(t)] of an
    instance with reservations (paper §3.1), the usage [r(t)] of a schedule
    (appendix), and the step functions the analysis, the certificates and
    the benchmark read. A profile holds a finite number of breakpoints; its
    last value extends to infinity.

    {!of_reservations} is the one place where a reservation set becomes
    availability (DESIGN.md §7): every instance, engine run and benchmark
    check reads the profile it builds, through the read-only arrays of
    {!t}.

    Values are plain [int]s and may be negative (differences of profiles are
    profiles). All functions are persistent. Schedulers do not run on
    profiles: their capacity queries and reservations are {!Timeline}'s
    ([Timeline.of_profile] imports a profile). *)

type t = private {
  times : int array;
      (** The breakpoints: [times.(0) = 0], strictly increasing, at least
          one. Never mutate. *)
  caps : int array;
      (** [caps.(i)] is the value on [\[times.(i), times.(i+1))], the last
          extending to infinity; adjacent values differ (normal form), and
          [Array.length caps = Array.length times]. Never mutate. *)
}

val constant : int -> t
(** The everywhere-[c] profile. *)

val of_steps : (int * int) list -> t
(** [of_steps [(t0,v0); (t1,v1); ...]] is the profile with value [vi] on
    [\[ti, t{i+1})]. Times must be distinct and >= 0; the list is sorted
    internally; the value before the smallest time defaults to the value at
    the smallest time, which must be 0. Raises [Invalid_argument] on an empty
    list, duplicate times, or if no step starts at time 0. *)

val of_arrays : int array -> int array -> t
(** [of_arrays times values] holds [values.(i)] on
    [\[times.(i), times.(i+1))], the last extending to infinity, and takes
    both arrays over: the caller must not mutate them afterwards. They must
    be of one length and in normal form: [times.(0) = 0], times strictly
    increasing, neighbouring values distinct. Raises [Invalid_argument]
    otherwise. *)

val of_reservations : m:int -> Reservation.t list -> t
(** [m − U(t)]: the availability the reservations leave on [m]
    processors. The [2R] edges of [R] reservations (start [−q], stop [+q])
    are packed into one int array, sorted once with {!sort_ints},
    accumulated and normalised, counting the segments first and then
    filling exact-size arrays; no tuple, list or intermediate profile is
    built. Raises [Invalid_argument "Instance.create: reservations exceed
    machine capacity"] when [U(t) > m] somewhere, and [Invalid_argument]
    when a reservation ends after [max_int lsr (bits qmax + 1)] (the packed
    key's time field; [2^54] for 64-processor reservations). Checks neither
    [m] nor reservation ids. *)

val sort_ints : int array -> unit
(** Ascending in-place sort of an int array (a monomorphic merge sort
    through one scratch array of the same length): {!of_reservations}'s
    edge sort, also behind [Instance.validate]'s id checks. *)

val of_events : base:int -> (int * int) list -> t
(** [of_events ~base deltas] builds the sweep profile
    [t ↦ base + Σ {d | (τ,d) ∈ deltas, τ <= t}]. Event times must be >= 0;
    multiple events at one time accumulate. Unlike {!of_reservations} it
    packs nothing, so it takes any event time: a schedule's usage may end
    past the packed key's range. *)

val value_at : t -> int -> int
(** Value at time [x >= 0]. *)

val max_on : t -> lo:int -> hi:int -> int
(** Maximum over the window [\[lo, hi)], [0 <= lo <= hi]; [min_int] (the
    identity of [max]) on the empty window [lo = hi]. *)

val integral_on : t -> lo:int -> hi:int -> int
(** [∫_lo^hi profile], i.e. processor·time area over [\[lo, hi)]. Requires
    [0 <= lo <= hi]; 0 when [lo = hi]. *)

val min_value : t -> int
(** Global minimum (the tail segment counts). *)

val sub : t -> t -> t
(** Pointwise difference. *)

val breakpoints : t -> int array
(** The profile's breakpoints, in increasing order, starting with 0. *)

val to_steps : t -> (int * int) list
(** Inverse of {!of_steps}: normalized [(time, value)] segments. *)

val fold_segments : t -> init:'a -> f:('a -> lo:int -> hi:int option -> v:int -> 'a) -> 'a
(** Fold over maximal constant segments; [hi = None] for the tail segment. *)
