(** Deterministic multicore executor for experiment campaigns.

    A persistent work-distributing pool of OCaml 5 domains. Every
    combinator is a drop-in replacement for its sequential counterpart:
    results land by input index and reductions run in a fixed (ascending)
    order, so the output is bit-identical to the sequential run regardless
    of how many domains execute it. Randomised replicates get their
    generators pre-split from the caller's generator {e before} any task
    runs ({!parallel_replicates}), which decouples each replicate's random
    stream from scheduling order.

    The pool size is resolved, in decreasing priority, from
    {!set_domains} (the [--jobs] flag of the CLI and benchmark harness),
    the [RESA_DOMAINS] environment variable, and finally
    [Domain.recommended_domain_count] (capped at 8). At size 1 every
    combinator degrades to a plain sequential loop with no domain spawns,
    no locking and no extra allocation beyond the result array.

    Parallel sections do not nest: a combinator called while another one
    is running (from a worker task, or from a second domain) executes its
    tasks inline, sequentially — same results, no deadlock. Worker
    exceptions are captured and the one raised by the {e lowest} task
    index is re-raised at the join point with its backtrace, again
    matching what the sequential loop would have raised first.

    With collection on ([RESA_METRICS=1], [--metrics] or
    {!Resa_obs.Metrics.enable}), every task's wall time is added to the
    [wall.par.busy_ns] registry counter and each pooled parallel section
    records a [par.run_block] span on the submitting domain's Chrome track —
    wall-clock data only, never part of results. *)

open Resa_core

val set_domains : int -> unit
(** Override the pool size (values [< 1] are clamped to 1). If a pool of
    a different size is already running, it is shut down and respawned
    lazily at the next parallel call. *)

val with_domains : int -> (unit -> 'a) -> 'a
(** [with_domains d f] runs [f] with the pool size forced to [d],
    restoring the previous configuration afterwards (even on exceptions).
    Used by the differential tests. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f a] is [Array.map f a], computed by the pool.
    [?domains] overrides the configured size for this call only. *)

val parallel_map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** List counterpart of {!parallel_map} (order preserved). *)

val parallel_for_reduce :
  ?domains:int ->
  lo:int ->
  hi:int ->
  init:'acc ->
  f:(int -> 'a) ->
  combine:('acc -> 'a -> 'acc) ->
  unit ->
  'acc
(** [parallel_for_reduce ~lo ~hi ~init ~f ~combine ()] computes [f i] for
    [i] in [\[lo, hi)] in parallel, then folds the results with [combine]
    {e sequentially in ascending index order} — identical to
    [fold_left combine init (List.init (hi-lo) (fun i -> f (lo+i)))] even
    for non-commutative [combine]. *)

val parallel_replicates :
  ?domains:int -> Prng.t -> n:int -> (Prng.t -> int -> 'a) -> 'a array
(** [parallel_replicates rng ~n f] runs [n] independent replicates
    [f rng_i i]. The per-replicate generators [rng_0 .. rng_{n-1}] are
    pre-split from [rng] sequentially (by {!Prng.split}) before any task
    starts, so replicate [i] sees the same random stream whether the
    batch runs on 1 or 64 domains; [rng] itself is advanced by exactly
    [n] splits. Results land by replicate index. *)
