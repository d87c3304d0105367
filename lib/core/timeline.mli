(** Mutable capacity timeline: the imperative fast path behind every
    scheduler's free-capacity bookkeeping.

    A timeline represents the same mathematical object as {!Profile.t} — an
    integer-valued step function over discrete time [\[0, ∞)] whose last
    value extends to infinity — but stores it in a sparse lazy segment tree
    over a fixed power-of-two breakpoint universe [\[0, size)] (grown by
    root-doubling when an operation touches later instants). Every mutation
    and query is a single O(log U) tree walk with no allocation beyond node
    materialisation, versus the O(k) whole-array rebuild that
    [Profile.change]/[Profile.reserve] pay per job; [U] is the universe
    size, so [log U <= 63] always and ≈ 20 for realistic horizons.

    Semantics are kept exactly aligned with [Profile] — [min_on], [reserve],
    [change], [earliest_fit], [next_breakpoint_after] and [last_breakpoint]
    return bit-identical results to the persistent versions applied to the
    same operation history (enforced by the randomized differential suite in
    [test/test_timeline.ml]) — so schedulers can switch their hot loops to a
    timeline while validation code keeps consuming [Profile.t] through
    {!to_profile}.

    Queries are strictly read-only: descents carry pending ancestor
    range-adds in an accumulator instead of flushing them, so the hot query
    path ([min_on]/[earliest_fit]/[value_at]/…) performs no writes and no
    allocation at all — only mutations materialise or touch nodes.
    Timelines remain single-owner mutable state; sharing one value across
    concurrent mutating consumers is not supported. *)

type t

val create : int -> t
(** [create c] is the everywhere-[c] timeline. *)

val of_profile : ?horizon:int -> Profile.t -> t
(** Import a profile. [horizon] pre-sizes the breakpoint universe (it still
    grows on demand); useful when the caller knows the schedule's end. *)

val to_profile : ?from:int -> t -> Profile.t
(** Export the current state as a normalized persistent profile. With
    [~from:t], the past is collapsed: the result is constant at
    [value_at t] on [\[0, t\]] and exact afterwards — the cheap "forward
    view" handed to simulator policies, whose decisions never look back. *)

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
    probe, so the checked variant's second descent over the identical
    window is pure overhead on the hot path; the recorded speculation-log
    entry is the same capacity-verified quad either way. On a caller that
    lies, capacity goes negative instead of raising — keep {!reserve} for
    windows that were not just probed. *)

val earliest_fit : t -> from:int -> dur:int -> need:int -> int option
(** Smallest [s >= from] with [min_on ~lo:s ~hi:(s+dur) >= need], found by
    alternating two tree descents (leftmost value [< need] in the candidate
    window / leftmost value [>= need] after the blocker). [None] exactly
    when the tail value is below [need]. Requires [dur >= 1]. *)

val earliest_fit_at : t -> from:int -> dur:int -> need:int -> int
(** Allocation-free twin of {!earliest_fit}: returns [-1] instead of [None]
    so the decide loop's hottest query boxes nothing. *)

(** {2 Speculation}

    A checkpoint opens an undo scope: every {!change} (and hence every
    {!reserve}) applied while at least one checkpoint is outstanding is
    recorded in an internal log, and {!rollback} replays exact inverses —
    O(ops · log U) to speculate and retract, independent of the timeline's
    size. This is the primitive behind trial backfills (EASY) and replans
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

val iter_chunks_from : t -> from:int -> f:(lo:int -> hi:int option -> v:int -> bool) -> unit
(** Visit constant-value chunks covering [\[from, ∞)] in increasing order,
    in one in-order tree traversal (amortized O(chunks + log U), versus one
    O(log U) descent per segment when walking {!next_breakpoint_after}).
    Chunks are tree leaves, not maximal runs: adjacent chunks may carry the
    same value. The last callback gets [hi = None] (the tail). Return
    [false] from [f] to stop early. The accumulating scans of the exact
    solver's lower bounds are the intended consumer. *)

val first_reaching_area : t -> from:int -> area:int -> cap:int -> int
(** Smallest [C >= from] with [Σ_{x ∈ [from, C)} value(x) >= area], computed
    in one descent on an internal sum aggregate (O(log U) on non-negative
    timelines: a subtree whose total cannot complete the missing area is
    consumed in O(1)). Interpolates inside positive-valued runs, exactly
    like [Lower_bounds.min_time_with_area] on the matching profile. Returns
    [min cap C]; [cap] both truncates the result and bounds the walk, and is
    returned whenever the target is never reached (non-positive tail).
    [area <= 0] yields [min from cap]. *)

val gc : t -> upto:int -> unit
(** History garbage collection. The committed past of a capacity timeline
    never changes — schedulers only mutate and query windows at or after
    the current instant — so [gc t ~upto] rebuilds the tree from the live
    suffix alone: the result is exact on [\[upto, ∞)], constant
    [value_at t upto] on [\[0, upto)] (the same collapse {!to_profile}
    performs with [~from]), and the node arrays are reallocated at the live
    size, returning the accumulated history to the OCaml heap. The rebuild
    also {e rebases} the tree's internal origin to [upto], so the universe
    — and every descent's depth — tracks the width of the live horizon
    instead of absolute simulation time. Every query whose window lies at
    or after [upto] behaves exactly as before the call, and window/point
    queries below [upto] see the collapsed constant; mutations strictly
    below the origin become unrepresentable and raise [Invalid_argument]
    (see {!origin}), and position searches ({!earliest_fit}) clamp [from]
    to the origin. Cost: O(nodes) — one walk of the old tree into a
    segment buffer the timeline reuses across calls, one bottom-up build,
    no allocation per segment (the new node array is the only one). Raises
    [Invalid_argument] when a checkpoint is outstanding (the undo log
    records origin-relative windows) or [upto < 0]. *)

val origin : t -> int
(** The gc rebase origin: mutations must lie at or after it. 0 until the
    first {!gc}, then the largest [upto] so far. *)

val node_count : t -> int
(** Materialised tree nodes (monotone between {!gc} calls) — the memory
    footprint driver a long replay watches. *)

val next_breakpoint_after : t -> int -> int option
(** Smallest instant [> t] where the value changes, if any — agrees with
    [Profile.next_breakpoint_after] on the normalized profile. *)

val last_breakpoint : t -> int
(** Start of the final constant segment (0 for a constant timeline). *)

val pp : Format.formatter -> t -> unit
