(** Event-driven online cluster simulator.

    The production-system substrate (DESIGN.md §5): jobs are submitted over
    time to a cluster of [m] processors with a fixed set of advance
    reservations; a pluggable {!Policy.t} decides starts. The simulation is
    deterministic: events at equal instants are processed in insertion
    order, queues are kept in submission order.

    Free capacity lives in one mutable {!Resa_core.Timeline.t} for the whole
    run; policies query and mutate it directly, and every [decide] call runs
    under a timeline checkpoint that is committed only when its log is
    exactly the started jobs' reservations and rolled back otherwise, so
    trial reservations made while deciding never leak. No persistent profile is
    rebuilt anywhere — decision path or tracing path: the head-blocked
    classifier queries the live timeline and a once-per-run
    reservation-blocked profile built lazily from the reservation sweep
    ({!Resa_core.Resv_sweep.unavailability}), and queue-membership checks
    are O(1) via id hash sets — a decision step costs one timeline
    operation per start and query rather than O(history).

    The policy's per-run decision function is created at the start of each
    run ([policy.create ~obs]), so planning state cannot leak across runs.

    Soundness is enforced, not assumed: every start requested by a policy is
    checked against the capacity timeline (must be queued, not already
    started this decision, and fit its whole window), and the finished trace
    converts to an [Instance.t]/[Schedule.t] pair that [Schedule.validate]
    accepts (tested).

    {2 Observability}

    {!run_stream} and {!run} take an optional tracer [?obs] (default
    {!Resa_obs.Trace.null}). With a live sink the simulator emits, in
    deterministic order: [Job_submit] / [Job_finish] while draining events,
    one [Decision] per decision instant (an instant with an empty queue
    writes [queued = 0; started = 0; wake = None] without consulting the
    policy, so the registry's [sim.decisions] counts consultations only,
    fewer than the [Decision] events), one [Job_start] per started job
    carrying its wait time and provenance ([Started_now] when it started in
    queue-prefix order, [Backfilled_ahead_of_head] when it overtook an
    earlier-queued job left waiting), one [Head_blocked] for the first job
    left waiting (reason: [Held_by_policy] if its window fits the free
    capacity, [Blocked_by_reservation] if it would fit with reservation-
    blocked capacity returned, [Blocked_by_capacity] otherwise), and
    [Sim_wake] when the simulator force-wakes a stalled policy. With the
    default null sink the run is byte-identical to the untraced build: the
    only overhead is one physical-equality test per potential event. *)

open Resa_core

type submitted = { job : Job.t; submit : int }

type arrival = { job : Job.t; submit : int; estimate : int }
(** One streamed submission: the actual job, its submit time and the
    requested walltime ([estimate >= Job.p job]). *)

type record = { job : Job.t; submit : int; start : int }

type trace = {
  m : int;
  reservations : Reservation.t list;
  records : record list;  (** In submission order. *)
  makespan : int;
}

type stream_stats = {
  jobs : int;  (** Arrivals simulated. *)
  makespan : int;
  max_queued : int;  (** Peak waiting-queue length. *)
  max_live : int;  (** Peak jobs waiting or running — the memory driver. *)
}

type heartbeat = {
  hb_seq : int;  (** 1-based snapshot index within the run. *)
  hb_time : int;  (** Simulation instant of the snapshot. *)
  hb_events : int;  (** Arrivals admitted + completions drained so far. *)
  hb_admitted : int;
  hb_completed : int;
  hb_queued : int;  (** Jobs waiting right now. *)
  hb_live : int;  (** Jobs waiting or running right now. *)
  hb_makespan : int;  (** Makespan so far (max finish of started jobs). *)
  hb_nodes : int;  (** Stored timeline segments — what sets the footprint. *)
}
(** One periodic telemetry snapshot of a streamed replay. Every field is
    {e simulation} data, hence deterministic: two runs of the same
    workload produce identical heartbeat sequences at any executor pool
    size. Wall-clock enrichment (jobs/s, RSS) is the consumer's job — see
    {!Heartbeat} — and stays segregated, as [Resa_obs.Prof] data does. *)

exception Policy_error of string
(** Raised when a policy starts a job that does not fit, starts a job not in
    the queue, deadlocks (never starts a startable queue) or raises from its
    [decide]. The message names the policy, the offending job (or the
    exception, [Printexc.to_string]), the current time and — for capacity
    violations — the requested window with its needed vs offered width.
    The failed decision's timeline checkpoint, and any the policy left open
    inside it, is rolled back first. *)

val run :
  ?obs:Resa_obs.Trace.t ->
  policy:Policy.t ->
  m:int ->
  ?reservations:Reservation.t list ->
  ?estimates:int array ->
  submitted list ->
  trace
(** Simulate a materialised submission list to completion — {!run_stream}
    fed in (submit, list position) order, with the records collected back
    into submission order. Reservations must fit the machine, checked
    before the run starts. Each submission is checked as the engine pulls
    it, as {!run_stream} checks its arrivals and with the same
    [Invalid_argument] texts: a negative submit time, an estimate below the
    actual runtime, [q > m], or an id shared with a job still waiting or
    running. An id reused by jobs that are never live together is
    accepted. A fault raises mid-run, after the events before it were
    traced.

    [estimates] (default: the actual runtimes) gives each submission, in
    order, a {e requested} walltime [estimates.(i) >= actual p]: policies
    see and plan with the estimate, the job actually completes after its
    true runtime, and the capacity reserved for the unused tail is released
    at completion — the mechanism behind backfilling's well-known
    sensitivity to user walltime overestimation. The returned records carry
    the {e actual} jobs. An [estimates] array of the wrong length raises
    [Invalid_argument] before the run. *)

val run_stream :
  ?obs:Resa_obs.Trace.t ->
  ?gc_every:int ->
  ?heartbeat_every:int ->
  ?on_heartbeat:(heartbeat -> unit) ->
  ?on_record:(record -> unit) ->
  policy:Policy.t ->
  m:int ->
  ?reservations:Reservation.t list ->
  (unit -> arrival option) ->
  stream_stats
(** Constant-memory replay: arrivals are pulled one at a time from the
    iterator (submit times must be non-decreasing; one arrival of lookahead
    is held), per-job bookkeeping is dropped when the job completes, and no
    record list is built — [on_record] (default: ignore) observes each
    [(job, submit, start)] at the instant the job starts, in start order.
    Memory is O(live jobs + timeline), independent of trace length.

    [gc_every] (default 0 = never) also compacts the capacity timeline
    with [Timeline.gc ~upto:now] every that many completions. The engine
    already collects on its own once the timeline's past spans or holds
    too much, which keeps multi-million-job runs flat without it.
    Compaction is invisible: every simulator and policy access touches
    windows at or after now.

    [on_heartbeat] (default: none) attaches a periodic telemetry sampler:
    after processing a decision instant, if at least [heartbeat_every]
    events (arrivals + completions) have elapsed since the previous
    snapshot, one {!heartbeat} is emitted; a closing snapshot always
    follows the last event. With a sampler but no cadence ([0], the
    default) it is one snapshot per 65536 events. Heartbeats are pure
    simulation data — deterministic, and with no sampler attached the run
    is byte-identical to one without the feature. [gc_every] and
    [heartbeat_every] must be non-negative ([Invalid_argument]
    otherwise).

    Semantics are those of {!run} [~estimates] on the drained arrival list:
    same decisions, same starts, and byte-identical [?obs] traces — at any
    instant due arrivals are admitted before queued events, which pop in
    push order (enforced by the differential suite in
    [test/test_stream.ml], including under [gc_every:1]). The machine and
    the reservations are checked before the run. Each arrival is checked
    at its pull, with one [Invalid_argument] text per fault:
    ["Simulator: negative submit time"], ["Simulator: submit times must be
    non-decreasing"], ["Simulator: estimate below the actual runtime"],
    ["Simulator: job wider than the machine"] and ["Simulator: duplicate
    live job id"] (an id shared with a job still waiting or running). *)

val run_order : policy:Policy.t -> Instance.t -> int array -> Schedule.t
(** The offline schedule of [policy]: every job of the instance submitted
    at time 0, in [order] (a permutation of the job indices, unchecked). *)

val to_offline : trace -> Instance.t * Schedule.t
(** Forget release dates: the instance/schedule pair actually executed,
    ready for validation, Gantt rendering or ratio measurements. *)
