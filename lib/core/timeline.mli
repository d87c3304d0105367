(** Mutable capacity timeline: the imperative fast path behind every
    scheduler's free-capacity bookkeeping.

    A timeline represents the same mathematical object as {!Profile.t} — an
    integer-valued step function over discrete time [\[0, ∞)] whose last
    value extends to infinity — stored as its normalised segment list
    (adjacent values differ) cut into blocks of at most 16 segments. The
    blocks are slices of pooled int arrays, reached in time order through a
    block index; each keeps its length, a pending add and the min and max
    of its values. With [k] segments in [B = k/16 .. 4k/16] blocks:
    - locating an instant is a binary search over the blocks' first
      positions, then one inside a block: O(log k), on contiguous memory;
    - {!change} splits at its two ends (moving at most one block's worth of
      segments), adds to the partial blocks' entries, adds lazily in O(1)
      to each whole block between them and merges equal neighbours at the
      two ends: O(log k + B) worst case, O(log k) for windows inside a
      block;
    - window queries and {!earliest_fit} scan the partial blocks and read
      the summaries of whole ones;
    versus the O(k) whole-array rebuild that
    [Profile.change]/[Profile.reserve] pay per job. Freed blocks return to
    a free list and the pool grows by doubling, so steady-state operation
    allocates nothing.

    Semantics are kept exactly aligned with [Profile] — [min_on], [reserve],
    [change], [earliest_fit] and [last_breakpoint]
    return bit-identical results to the persistent versions applied to the
    same operation history (enforced by the randomized differential suite in
    [test/test_timeline.ml]) — so schedulers can switch their hot loops to a
    timeline while validation code keeps consuming [Profile.t] through
    {!to_profile}.

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
(** Import a profile. *)

val of_steps : int array -> int array -> int -> t
(** [of_steps times values n] holds [values.(i)] on
    [\[times.(i), times.(i+1))] for [i < n], the last extending to
    infinity; entries from [n] on are ignored. The steps must be in normal
    form, as {!Resv_sweep.run} returns them: [times.(0) = 0], times
    strictly increasing, neighbouring values distinct. Raises
    [Invalid_argument] otherwise. *)

val to_profile : ?from:int -> t -> Profile.t
(** Export the current state as a normalized persistent profile. With
    [~from:t], the past is collapsed: the result is constant at
    [value_at t] on [\[0, t\]] and exact afterwards — the cheap "forward
    view" handed to simulator policies, whose decisions never look back. *)

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
    [min]) on the empty window — same convention as [Profile.min_on]. *)

val max_on : t -> lo:int -> hi:int -> int
(** Maximum over the window; [min_int] on the empty window. *)

val change : t -> lo:int -> hi:int -> delta:int -> unit
(** Add [delta] on [\[lo, hi)]; no-op when [lo >= hi] or [delta = 0].
    Raises [Invalid_argument] on negative [lo]. *)

val reserve : t -> start:int -> dur:int -> need:int -> unit
(** Subtract [need] on [\[start, start+dur)] after checking the window has
    capacity [need] everywhere; raises [Invalid_argument] otherwise, leaving
    the timeline unchanged. The checked allocation used by schedulers; undo
    a reservation with [change ~delta:need] (exact inverse). *)

val reserve_fitting : t -> start:int -> dur:int -> need:int -> unit
(** [reserve] minus the capacity re-check: the caller attests the window
    was just verified to fit ([min_on] or {!earliest_fit_at} on the very
    same [start]/[dur]/[need]). Every scheduler reserve follows such a
    probe, so the checked variant's second scan over the identical
    window is pure overhead on the hot path; the recorded speculation-log
    entry is the same capacity-verified quad either way. On a caller that
    lies, capacity goes negative instead of raising — keep {!reserve} for
    windows that were not just probed. *)

val earliest_fit : t -> from:int -> dur:int -> need:int -> int option
(** Smallest [s >= from] with [min_on ~lo:s ~hi:(s+dur) >= need], found in
    one forward walk over the segments from [from]: a whole block whose max
    is below [need] is skipped as a blocker, one whose min reaches [need] is
    consumed as fitting. [None] exactly when the tail value is below
    [need]. Requires [dur >= 1]. *)

val earliest_fit_at : t -> from:int -> dur:int -> need:int -> int
(** Allocation-free twin of {!earliest_fit}: returns [-1] instead of [None]
    so the decide loop's hottest query boxes nothing. *)

(** {2 Speculation}

    A checkpoint opens an undo scope: every {!change} (and hence every
    {!reserve}) applied while at least one checkpoint is outstanding is
    recorded in an internal log, and {!rollback} replays exact inverses —
    one {!change} each to speculate and to retract. Segments are
    normalised, so a rollback restores exactly the same segment list. This
    is the primitive behind trial backfills (EASY) and replans
    (conservative): reserve tentatively, inspect the consequences, keep or
    retract.

    Checkpoints nest and must be resolved strictly LIFO: the innermost
    outstanding mark must be rolled back or committed first ([rollback] and
    [commit] raise [Invalid_argument] on a stale or out-of-order mark where
    detectable). [commit] keeps the speculated changes but merely closes the
    scope — an enclosing checkpoint still undoes them on its own rollback.
    With no checkpoint outstanding the log is empty and mutations pay a
    single extra branch. *)

type mark
(** An open undo scope, as returned by {!checkpoint}. *)

val checkpoint : t -> mark
(** Open an undo scope at the current state. *)

val rollback : t -> mark -> unit
(** Undo every change recorded since the mark (inverse range-adds, newest
    first) and close the scope. *)

val commit : t -> mark -> unit
(** Close the scope keeping all changes since the mark. *)

val open_checkpoints : t -> int
(** Scopes opened and not yet rolled back or committed. *)

val spec_ops : t -> mark -> int
(** Number of mutations recorded since the mark (the scope must still be
    open). With {!spec_op_is_reserve} this lets a caller prove that a
    speculative scope performed {e exactly} a known reservation sequence
    and {!commit} it instead of rolling back and re-applying — the
    simulator's decide-loop fast path. *)

val spec_op_is_reserve : t -> mark -> i:int -> start:int -> dur:int -> need:int -> bool
(** [spec_op_is_reserve t m ~i ~start ~dur ~need] iff the [i]-th mutation
    recorded since the mark was a capacity-checked
    [reserve ~start ~dur ~need] (unchecked {!change}s never match). *)

val final_value : t -> int
(** Value of the tail segment extending to infinity — O(1), same as
    [Profile.final_value] on the normalized profile. Range changes are
    confined to finite windows, so the tail never moves. *)

val first_reaching_area : t -> from:int -> area:int -> cap:int -> int
(** Smallest [C >= from] with [Σ_{x ∈ [from, C)} value(x) >= area], computed
    in one walk over the segments from [from] (linear in the segments
    walked, no allocation). Interpolates inside positive-valued runs,
    exactly like [Lower_bounds.min_time_with_area] on the matching profile.
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
    ({!earliest_fit}) clamp [from] to it. Cost: O(dead blocks + blocks), no
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
    origin, every block holding 1 to 16 segments with its cached first
    position, min and max equal to recomputed ones, and {!node_count} equal
    to the sum of block lengths. Raises [Failure] naming the first broken
    invariant. O(segments); for tests and debugging. *)

val last_breakpoint : t -> int
(** Start of the final constant segment (0 for a constant timeline). *)

val pp : Format.formatter -> t -> unit
