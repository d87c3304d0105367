(** Piecewise-constant integer step functions over discrete time [\[0, ∞)]:
    the model's objects.

    Profiles represent the availability function [m(t) = m − U(t)] of an
    instance with reservations (paper §3.1), the usage [r(t)] of a schedule
    (appendix), and the step functions the analysis, the certificates and
    the benchmark read. A profile holds a finite number of breakpoints; its
    last value extends to infinity.

    Values are plain [int]s and may be negative (differences of profiles are
    profiles). All functions are persistent. Schedulers do not run on
    profiles: their capacity queries and reservations are {!Timeline}'s
    ([Timeline.of_profile] imports a profile). *)

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

val max_on : t -> lo:int -> hi:int -> int
(** Maximum over the window [\[lo, hi)], [0 <= lo <= hi]; [min_int] (the
    identity of [max]) on the empty window [lo = hi]. *)

val integral_on : t -> lo:int -> hi:int -> int
(** [∫_lo^hi profile], i.e. processor·time area over [\[lo, hi)]. Requires
    [0 <= lo <= hi]; 0 when [lo = hi]. *)

val min_value : t -> int
(** Global minimum (the tail segment counts). *)

val max_value : t -> int

val sub : t -> t -> t
(** Pointwise difference. *)

val breakpoints : t -> int array
(** The profile's breakpoints, in increasing order, starting with 0. *)

val to_steps : t -> (int * int) list
(** Inverse of {!of_steps}: normalized [(time, value)] segments. *)

val fold_segments : t -> init:'a -> f:('a -> lo:int -> hi:int option -> v:int -> 'a) -> 'a
(** Fold over maximal constant segments; [hi = None] for the tail segment. *)
