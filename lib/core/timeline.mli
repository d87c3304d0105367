(** Mutable capacity timeline: the imperative fast path behind every
    scheduler's free-capacity bookkeeping.

    A timeline represents the same mathematical object as {!Profile.t} — an
    integer-valued step function over discrete time [\[0, ∞)] whose last
    value extends to infinity — stored as its normalised segment list
    (adjacent values differ) cut into blocks of at most 16 segments. The
    blocks are slices of pooled int arrays, reached in time order through a
    block index; each keeps its length, a pending add and the min and max
    of its values. Every two adjacent blocks hold more than 8 segments
    together, so [k] segments take [B] blocks with [k/16 <= B <= 2k/9 + 1]:
    - locating an instant is a binary search over the blocks' first
      positions, then one inside a block: O(log k), on contiguous memory;
    - {!change} is one pass: it locates its low end, scans forward to its
      high end, and rewrites each end's block with one shift that inserts
      the new breakpoints and drops those whose segments merged, adding to
      the entries inside the window; whole blocks between take the add
      lazily in O(1): O(log k + B) worst case, O(log k) for windows inside
      a block, about the cost of one {!min_on} on the same window;
    - window queries and {!earliest_fit_at} scan the partial blocks and
      read the summaries of whole ones;
    versus the O(k) whole-array rebuild of a persistent profile per update.
    Freed blocks return to a free list and the pool grows by doubling, so
    steady-state operation allocates nothing.

    Every scheduler in [lib/] runs on a timeline; {!Profile} is only the
    model ({!of_profile} and {!to_profile} convert at the boundaries, each
    in O(k) over the profile's read-only arrays). The
    persistent operations it replaced are kept in the test oracle
    [Resa_oracles.Profile_oracle]: [min_on], [reserve] (which raises where
    {!reserve} answers [false]), [change], [earliest_fit] (which answers
    [None] where {!earliest_fit_at} answers [-1]) and [last_breakpoint]
    give bit-identical results to the operations here applied to the same
    history, which the randomized differential suite in
    [test/test_timeline.ml] enforces.

    Queries change no segment and allocate nothing; their one write is a
    cached search finger (the block the last search landed in), so the
    next search near the same instant skips the binary search. The finger
    is a hint checked on every use, so concurrent readers stay correct.
    Timelines remain single-owner mutable state; sharing one value across
    concurrent mutating consumers is not supported. *)

type t

val create : int -> t
(** [create c] is the everywhere-[c] timeline. *)

val of_profile : Profile.t -> t
(** Import a profile: its arrays are in normal form, so they are appended
    as they are, O(k). This is how an engine run fills its timeline from
    the reservations' availability. *)

val to_profile : ?from:int -> t -> Profile.t
(** Export the current state as a normalized persistent profile. With
    [~from:t], the past is collapsed: the result is constant at
    [value_at t] on [\[0, t\]] and exact afterwards — the cheap "forward
    view" handed to simulator policies, whose decisions never look back.
    O(k): the segments are counted, then written into exact-size arrays
    handed to {!Profile.of_arrays}; no list, no sort. *)

val copy : ?from:int -> t -> t
(** A fresh timeline equal to [of_profile (to_profile ?from t)]: its first
    segment reaches back to 0 with [value_at t (max from (origin t))], the
    rest are [t]'s; origin 0, no checkpoint. Built in one pass over the
    segments from [from] on, straight into a pool sized for them — no
    profile, no list, no sort. The two timelines share nothing: mutating
    either leaves the other unchanged. *)

val value_at : t -> int -> int
(** Value at time [x >= 0]. *)

val min_on : t -> lo:int -> hi:int -> int
(** Minimum over [\[lo, hi)], [0 <= lo <= hi]; [max_int] (the identity of
    [min]) on the empty window, as [Profile.max_on] answers [min_int]. *)

val change : t -> lo:int -> hi:int -> delta:int -> unit
(** Add [delta] on [\[lo, hi)]; no-op when [lo >= hi] or [delta = 0].
    Raises [Invalid_argument] on negative [lo]. *)

val reserve : t -> start:int -> dur:int -> need:int -> bool
(** [reserve t ~start ~dur ~need] subtracts [need] on
    [\[start, start+dur)] and returns [true] when the window has capacity
    [need] everywhere ([min_on] over it reaches [need]); otherwise it
    returns [false] and leaves the timeline unchanged. Raises
    [Invalid_argument] when [dur < 1] or [need < 0]. Under a checkpoint,
    a reservation made is logged as {e checked}: {!spec_op_is_reserve}
    tells it apart from a {!change} by the same amount. Undo one with
    [change ~delta:need] (exact inverse). The registry counts the
    reservations made ([timeline.reserve]) and refused
    ([timeline.reserve_failed]). *)

val earliest_fit_at : t -> from:int -> dur:int -> need:int -> int
(** Smallest [s >= from] with [min_on ~lo:s ~hi:(s+dur) >= need], found in
    one forward walk over the segments from [from]: a whole block whose max
    is below [need] is skipped as a blocker, one whose min reaches [need] is
    consumed as fitting. [-1] exactly when the tail value is below [need]
    (an [int], not an [option], so the decide loop's hottest query boxes
    nothing). Requires [dur >= 1]. *)

val reserve_or_fit : t -> start:int -> dur:int -> need:int -> int
(** [reserve_or_fit t ~start ~dur ~need] is [start] when
    [reserve t ~start ~dur ~need] would make the reservation, and makes it
    (checked, as {!reserve} does); otherwise it changes nothing and is
    [earliest_fit_at t ~from:start ~dur ~need], which is then also the
    earliest fit from [start + 1]. One forward walk answers both: the fit
    walk from [start] returns [start] exactly when the window fits. The
    registry counts it as {!reserve} followed, on a refusal, by
    {!earliest_fit_at}. Raises [Invalid_argument] when [dur < 1],
    [need < 0] or [start] is below the {!origin}, where {!reserve} and
    {!earliest_fit_at} would read different windows. *)

val version : t -> int
(** A counter that every mutation advances: each {!change} that changes
    something, each reservation made, each change a {!rollback} undoes,
    and each {!gc}. Queries, {!checkpoint} and {!commit} leave it. Two
    equal readings of one timeline bracket no mutation, so a caller may
    keep an answer computed from it until the version moves. *)

(** {2 Speculation}

    A checkpoint opens an undo scope: every {!change} and every
    reservation made by {!reserve} while at least one checkpoint is
    outstanding is recorded in an internal log, and {!rollback} replays
    exact inverses — one {!change} each to speculate and to retract.
    Segments are normalised, so a rollback restores exactly the same
    segment list. This is the primitive behind the simulator's decisions
    and the branch-and-bound's placement trials: reserve tentatively,
    inspect the consequences, keep or retract.

    Checkpoints nest. A mark knows the depth of its scope, so only a
    scope's own mark resolves it: [commit] takes the innermost open mark,
    [rollback] an open one, and both raise [Invalid_argument] on a mark
    whose scope is closed or not open at that depth. [commit] keeps the
    speculated changes but merely closes the scope — an enclosing
    checkpoint still undoes them on its own rollback.
    With no checkpoint outstanding the log is empty and mutations pay a
    single extra branch. *)

type mark
(** An open undo scope, as returned by {!checkpoint}. *)

val checkpoint : t -> mark
(** Open an undo scope at the current state. *)

val rollback : t -> mark -> unit
(** Undo every change recorded since the mark (inverse range-adds, newest
    first) and close its scope, along with every scope still open inside
    it; [timeline.rollback] counts each scope closed. *)

val commit : t -> mark -> unit
(** Close the scope keeping all changes since the mark. *)

val open_checkpoints : t -> int
(** Scopes opened and not yet rolled back or committed. *)

val spec_ops : t -> mark -> int
(** Number of mutations in effect that were recorded since the mark (the
    scope must still be open): a rolled-back change leaves the log. With
    {!spec_op_is_reserve} this lets a caller prove that a scope performed
    {e exactly} a known sequence of checked reservations before it
    {!commit}s it — the simulator's one commit rule. *)

val spec_op_is_reserve : t -> mark -> i:int -> start:int -> dur:int -> need:int -> bool
(** [spec_op_is_reserve t m ~i ~start ~dur ~need] iff the [i]-th mutation
    in effect since the mark is a reservation that
    [reserve ~start ~dur ~need] made ({!change}s never match). *)

val final_value : t -> int
(** Value of the tail segment extending to infinity, O(1). Range changes
    are confined to finite windows, so the tail never moves. *)

val first_reaching_area : t -> from:int -> area:int -> cap:int -> int
(** Smallest [C >= from] with [Σ_{x ∈ [from, C)} value(x) >= area], computed
    in one walk over the segments from [from] (linear in the segments
    walked, no allocation). Interpolates inside positive-valued runs,
    rounding up; [Lower_bounds.min_time_with_area] is this walk behind a
    check of the tail.
    Returns [min cap C]; [cap] both truncates the result and bounds the
    walk, and is returned whenever the target is never reached
    (non-positive tail). [area <= 0] yields [min from cap]. *)

val gc : t -> upto:int -> unit
(** History garbage collection. The committed past of a capacity timeline
    never changes — schedulers only mutate and query windows at or after
    the current instant — so [gc t ~upto] drops it: the blocks wholly
    before [upto] return to the pool and the block holding [upto] shifts
    out its dead prefix, so that the first segment starts at [upto]. The
    result is exact on [\[upto, ∞)] and constant [value_at t upto] on
    [\[0, upto)] (the same collapse {!to_profile} performs with [~from]).
    [upto] becomes the timeline's {e origin}: every query whose window lies
    at or after it behaves exactly as before the call, window and point
    queries below it read the value at the origin (changes there included),
    mutations strictly below
    it raise [Invalid_argument] (see {!origin}), and position searches
    ({!earliest_fit_at}) clamp [from] to it. Cost: O(dead blocks + blocks), no
    rebuild and no allocation. Raises [Invalid_argument] when a checkpoint
    is outstanding or [upto < 0]. *)

val origin : t -> int
(** The gc rebase origin: mutations must lie at or after it. 0 until the
    first {!gc}, then the largest [upto] so far. *)

val node_count : t -> int
(** Stored segments, i.e. breakpoints from the origin on plus one — what
    sets the memory footprint a long replay watches. *)

val check : t -> unit
(** Verify the representation: segments in strictly increasing order and
    normalised (adjacent values differ), the first one starting at the
    origin, every block holding 1 to 16 segments and every two adjacent
    ones more than 8, each block's cached first position, min and max
    equal to recomputed ones, and {!node_count} equal to the sum of block
    lengths. Raises [Failure] naming the first broken
    invariant. O(segments); for tests and debugging. *)

val last_breakpoint : t -> int
(** Start of the final constant segment (0 for a constant timeline). *)
