(** Pluggable online scheduling policies for the simulator.

    A policy is consulted at every decision instant where a job is queued.
    The simulator answers the instants with an empty queue itself: nothing
    can start then, and a policy must not need a wake-up while its queue is
    empty. It sees the current time, the submission-ordered queue of
    waiting jobs (ids, estimates and widths: no actual runtime), and the
    simulator's live capacity {!Resa_core.Timeline.t} (machine availability
    minus reservations minus windows of running jobs). It answers with the
    queued jobs to start right now, named by their queue tags, and an
    optional extra wake-up instant (needed by planning policies whose next
    action time is not a simulator event), [-1] when it wants none.

    The contract of a start: the policy reserves the job's window,
    [Timeline.reserve free ~start:time ~dur:estimate ~need:width] answering
    [true] (or [Timeline.reserve_or_fit] with the same arguments answering
    [time]), and names its tag; the reservations are made in the order of
    [start_now], and nothing else may be left in the decision's log.
    Access is speculative: the simulator opens a timeline checkpoint around
    every [decide] call, so a decision may also try windows while reasoning
    ([Timeline.reserve], [Timeline.change], nested
    [Timeline.checkpoint]/[rollback]/[commit]), with every query reflecting
    its own tentative changes in place — no persistent profile is ever
    rebuilt — as long as it rolls back whatever is not a start and resolves
    every checkpoint it opens. Afterwards the simulator commits the log
    when it is exactly the starts' reservations, and otherwise rolls it
    back and raises [Simulator.Policy_error].
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
    call also bumps the policy's registry counter [policy.decide.<name>]
    (see {!Resa_obs.Metrics}) when collection is enabled. *)

open Resa_core

type action = {
  mutable start_now : int list;
      (** Tags of queued entries ({!Jobq.tags}), to start at [time], in
          start order. *)
  mutable wake : int;
      (** Extra decision instant strictly after [time]; [-1] for none (any
          value [<= time] requests nothing). *)
}
(** A decision's answer, {e valid until the next call} of the same
    [decide]: the native policies make one action per run in [create] and
    refill and return it at every decision, so answering costs no record
    and no option — only one cons cell per started job. The simulator reads
    it before deciding again; a caller that keeps answers must copy them.
    A tag names its entry from admission until the job starts, across
    decisions; once the job has finished, the engine may give its tag to a
    later arrival. *)

type decide = time:int -> queue:Jobq.t -> free:Timeline.t -> action
(** The queue is the simulator's live array-backed {!Jobq.t}, in
    submission order; policies read it in place ([Jobq.estimates],
    [Jobq.widths], [Jobq.ids] and [Jobq.tags] over
    [\[Jobq.first, Jobq.stop)], skipping dead cells) instead of receiving
    a freshly materialised list per decision. Each entry carries the job's
    runtime {e estimate}, never its actual runtime. *)

type t = {
  name : string;
  create : obs:Resa_obs.Trace.t -> decide;
      (** Fresh per-run decision function; called once by [Simulator.run]. *)
}

val fcfs : t
(** Strict FCFS: only the queue head may start; it starts at the first
    instant its whole window fits. One {!Resa_core.Timeline.reserve_or_fit}
    walk per queue entry reserves it or, for the blocked head, finds its
    next feasible start [g]. A consultation before [g] that finds the
    timeline's version and the head unchanged since the last decision is
    answered from that decision, without a walk: no start can have become
    feasible. Emits the blocked head's next feasible start as a [Planned]
    event at every consultation. *)

val conservative : t
(** Conservative backfilling: each job is planned at submission at the
    earliest start that delays no previously planned job, and starts exactly
    at its planned time: a plan is never moved. The plan lives in the
    policy's own mutable timeline, built once per run and updated
    incrementally. A due job is reserved on the live timeline; a planned
    window that does not fit there, or a planned start found in the past,
    is a planning bug, raised as [Failure]. Emits a [Planned] event per
    job, at its admission. *)

val easy : t
(** EASY backfilling: the head holds a guaranteed earliest start; any other
    job may start now if that guarantee is not pushed back — checked by
    one [min_on] over the overlap of its window with the head's, before
    it is reserved; no checkpoint is opened. The head's reservation and,
    when it is refused, its guarantee come from one
    {!Resa_core.Timeline.reserve_or_fit} walk. Emits the head's guarantee as
    a [Planned] event. With all jobs submitted at time 0 this is
    [Backfill.easy]. *)

val aggressive : t
(** List scheduling (LSRC): start every queued job that fits, in queue
    order — EASY's backfill scan with no head to protect. With all jobs
    submitted at time 0 this is [Lsrc.run], which runs it so; the
    differential tests hold it to the persistent-profile oracle. Emits no policy
    events (the simulator's provenance classification covers it). *)

val all : t list
(** The four policies, in the order above. *)
