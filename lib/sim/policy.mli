(** Pluggable online scheduling policies for the simulator.

    A policy is consulted at every simulation event. It sees the current
    time, the submission-ordered queue of waiting jobs, and the simulator's
    live capacity {!Resa_core.Timeline.t} (machine availability minus
    reservations minus windows of running jobs). It answers with the queued
    jobs to start right now — each must fit its whole window at the current
    time — and an optional extra wake-up instant (needed by planning
    policies whose next action time is not a simulator event).

    Access is speculative: the simulator opens a timeline checkpoint around
    every [decide] call, so a decision may reserve trial windows
    ([Timeline.reserve_fitting], nested [Timeline.checkpoint]/[rollback]/
    [commit]) while reasoning, with every query reflecting its own
    tentative reservations at O(log U) — no persistent profile is ever
    rebuilt. Afterwards the simulator commits the log when it is exactly
    the started jobs' reservations and rolls it back otherwise.
    Decisions must not inspect instants before the current time: the live
    timeline carries real history there ([Timeline.to_profile ~from:time]
    exports the forward view with the past collapsed).

    A {!t} is a {e factory}: [create ~obs] is invoked once per simulation
    run and returns that run's [decide], so planning state (conservative's
    plan table, EASY's guarantees) is freshly scoped per run — sharing one
    [t] across runs, sequentially or from parallel domains, is safe by
    construction. [obs] is the simulator's tracer: with a live sink,
    planning policies emit {!Resa_obs.Trace.Planned} events recording the
    start instant they currently promise a blocked or planned job — the
    policy-side half of decision provenance. With the null sink the
    decision logic is byte-identical to the untraced build. Each [decide]
    call also bumps a per-policy [Prof] counter when profiling is enabled.

    The [*_reference] values are the retained Profile-based oracles (repo
    convention: every timeline hot path keeps its persistent twin): same
    names, same decisions, but each decision snapshots the forward profile
    ([Timeline.to_profile ~from:time]) and re-derives plans with persistent
    [Profile.reserve]/[earliest_fit] chains — exactly the
    pre-timeline-native engine, kept for the differential suite and the
    before/after benchmark. *)

open Resa_core

type action = {
  start_now : Job.t list;  (** Subset of the queue, to start at [time]. *)
  wake : int option;  (** Extra decision instant strictly after [time]. *)
}

type decide = time:int -> queue:Jobq.t -> free:Timeline.t -> action
(** The queue is the simulator's live array-backed {!Jobq.t}, indexed in
    submission order; policies read it in place ([Jobq.get]/[Jobq.length])
    instead of receiving a freshly materialised list per decision. The
    [*_reference] oracles convert once with [Jobq.to_list]. *)

type t = {
  name : string;
  create : obs:Resa_obs.Trace.t -> decide;
      (** Fresh per-run decision function; called once by [Simulator.run]. *)
}

val fcfs : t
(** Strict FCFS: only the queue head may start; it starts at the first
    instant its whole window fits. Emits the blocked head's next feasible
    start as a [Planned] event. *)

val conservative : t
(** Conservative backfilling: each job is planned at submission at the
    earliest start that delays no previously planned job, and starts exactly
    at its planned time. The plan lives in the policy's own mutable
    timeline, built once per run and updated incrementally (stale windows
    undone with an inverse range-add on replans). Emits a [Planned] event
    per (re)planning. *)

val easy : t
(** EASY backfilling: the head holds a guaranteed earliest start; any other
    job may start now if that guarantee is not pushed back — checked by a
    trial reservation under a checkpoint, kept on success and rolled back
    otherwise. Emits the head's guarantee as a [Planned] event. *)

val aggressive : t
(** List scheduling (LSRC): start every queued job that fits, in queue
    order. With all jobs submitted at time 0 this reproduces [Lsrc.run]
    exactly (tested). Emits no policy events (the simulator's provenance
    classification covers it). *)

val all : t list
(** The four policies, in the order above. *)

val fcfs_reference : t
val conservative_reference : t
val easy_reference : t
val aggressive_reference : t

val all_reference : t list
(** Profile-based oracle twins of {!all}, same order and names: identical
    decisions derived from a per-decision forward-profile snapshot. *)
