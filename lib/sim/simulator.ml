open Resa_core
module Trace = Resa_obs.Trace
module Prof = Resa_obs.Prof
module Metrics = Resa_obs.Metrics

type arrival = { job : Job.t; submit : int; estimate : int }

type record = { job : Job.t; submit : int; start : int }

type stream_stats = { jobs : int; makespan : int; max_queued : int; max_live : int }

type heartbeat = {
  hb_seq : int;
  hb_time : int;
  hb_events : int;
  hb_admitted : int;
  hb_completed : int;
  hb_queued : int;
  hb_live : int;
  hb_makespan : int;
  hb_nodes : int;
}

exception Policy_error of string


(* Registry instruments for the always-on telemetry surface. All sites are
   flag-gated inside [Metrics] (one load + branch when disabled); values
   derived from simulation data are deterministic, the decision-latency
   histogram is wall-clock and therefore lives under the reserved "wall."
   prefix (see Resa_obs.Metrics). *)
let m_admitted = Metrics.counter "sim.jobs_admitted"
let m_completed = Metrics.counter "sim.jobs_completed"
let m_started = Metrics.counter "sim.jobs_started"
let m_decisions = Metrics.counter "sim.decisions"
let m_checkpoints = Metrics.counter "sim.checkpoints"
let m_commits = Metrics.counter "sim.commits"
let m_rollbacks = Metrics.counter "sim.rollbacks"
let m_gc_runs = Metrics.counter "sim.gc_runs"
let m_gc_reclaimed = Metrics.counter "sim.gc_reclaimed_nodes"
let m_heartbeats = Metrics.counter "sim.heartbeats"
let m_wait = Metrics.histogram "sim.wait"
let m_queue_depth = Metrics.gauge "sim.queue_depth"
let m_live_jobs = Metrics.gauge "sim.live_jobs"
(* Stored timeline segments ([Timeline.node_count]); the name predates the
   blocked timeline, as does [sim.gc_reclaimed_nodes]'s. *)
let m_nodes = Metrics.gauge "sim.timeline_nodes"
let m_decide_ns = Metrics.histogram "wall.decide_ns"

(* Event payloads in the event queue are plain ints: a wake-up, or the
   completing job's live slot (so completion touches no hash table). *)
let wake_payload = -1

let dummy_job = Job.make ~id:0 ~p:1 ~q:1

(* Maximum distance the timeline's gc origin may trail behind the clock
   before the engine collects the past on its own. With this and the
   segment trigger below, a replay stays flat without [run_stream]'s
   optional [gc_every] cadence. Every completion leaves segments behind in
   the past; collecting them keeps the blocks a search walks, and the pool
   a replay holds, proportional to the live horizon. The collection costs
   O(dead blocks + blocks) and is semantically invisible. *)
let auto_gc_span = 16384

(* Segment-count companion to the span trigger, for congested phases where
   the span alone would let dead segments pile up. Both constants date from
   the segment-tree timeline (picked by sweeping CONS/FCFS 200k-job
   replays) and were kept for the blocked one, whose collections are
   cheaper still. A collection that keeps at least this many segments (a
   long reserved future) raises the run's trigger to twice what it kept,
   or the trigger would fire at every decision. *)
let auto_gc_nodes = 16384

(* Rebase [free] at [t]. Both triggers — the optional [gc_every] cadence
   and the span/node bound above — go through here, so both count. *)
let gc free t =
  if Metrics.enabled () then begin
    let before = Timeline.node_count free in
    Timeline.gc free ~upto:t;
    Metrics.incr m_gc_runs;
    Metrics.add m_gc_reclaimed (max 0 (before - Timeline.node_count free))
  end
  else Timeline.gc free ~upto:t

(* The machine and the reservation ids, as [Instance.create] checks them
   and with its messages; the availability sweep checks the capacity. No
   instance is built. Arrivals are checked one by one as they are pulled
   ([peek_arrival], [admit]). *)
let validate_machine ~m ~reservations =
  match Instance.validate ~m ~jobs:[] ~reservations with
  | Ok () -> ()
  | Error msg -> invalid_arg msg

(* The state of one run of the event loop behind [run_stream] and
   [run_order]: one record, so that a run's set-up allocates a handful of
   blocks and the loop's steps are top-level functions over it, not
   closures over refs.

   Per-job state lives in struct-of-arrays keyed by a dense slot index
   recycled through a free list, held only while the job is waiting or
   running — a streamed replay's footprint stays proportional to the number
   of *live* jobs rather than the trace length, and the per-event path
   reads flat int arrays instead of chasing a record per job: [sjob] holds
   each slot's job and [sint] its int fields, [width] apart (below). *)
type run = {
  obs : Trace.t;
  tracing : bool;
  name : string;
  m : int;
  decide : Policy.decide;
  (* Fills the lookahead ([a_job], [a_submit], [a_est]) with the next
     arrival, the run's [n_jobs]-th, and says whether there was one. *)
  pull : run -> bool;
  on_start : int -> Job.t -> int -> int -> unit;
  on_heartbeat : (heartbeat -> unit) option;
  gc_every : int;
  hb_every : int;
  avail : Profile.t;
  free : Timeline.t;
  events : Eventq.t;
  queue : Jobq.t;
  (* The live ids: admission rejects a duplicate. *)
  live_ids : Ids.t;
  (* Reservation edges — every availability breakpoint, 0 included — are
     decision opportunities for every policy. They are read through a
     cursor over [avail]'s breakpoints, not pushed into the event queue:
     [edge] is the next one not yet reached. An edge is a no-op wake that
     only makes its instant a decision instant; at equal times it is
     passed after the arrivals and before the queued events (DESIGN.md
     §7). *)
  mutable edge : int;
  mutable sjob : Job.t array;
  mutable sint : int array;
  (* Recycled slots on a stack, and the first never-used one. *)
  mutable free_slots : int array;
  mutable free_top : int;
  mutable fresh : int;
  mutable moved : int -> int -> unit;
  (* The number of slots started by the current decision. *)
  mutable nstart : int;
  mutable decision_no : int;
  mutable forced : bool;
  (* Arrivals admitted and completions drained: their difference is the
     live jobs, their sum the heartbeat sampler's event clock (simulation
     data, so heartbeat cadence is deterministic). *)
  mutable n_jobs : int;
  mutable completions : int;
  mutable makespan : int;
  mutable max_queued : int;
  mutable max_live : int;
  mutable hb_seq : int;
  mutable hb_last_ev : int;
  (* Segment count past which the timeline is collected (see
     [auto_gc_nodes]). *)
  mutable gc_nodes : int;
  (* Submit of the last arrival pulled, or -1 once the source has returned
     [None]: from then on it is never called again. Validated submits are
     non-negative, so the mark is unambiguous, and it costs no
     allocation. *)
  mutable last_submit : int;
  (* The one arrival of lookahead, valid when [ready]: fields, not an
     [arrival], so a source held in memory allocates nothing per job. *)
  mutable ready : bool;
  mutable a_job : Job.t;
  mutable a_submit : int;
  mutable a_est : int;
  mutable last_t : int;
  (* The last wake pushed after a decision, -1 before any. *)
  mutable last_wake : int;
}

(* A slot's int fields: its admission index, submit time, estimate and
   start (-1 while waiting); the decision that started it (duplicate-start
   detection without a per-decision set); and its queue position while it
   waits, kept current through the queue's move reports. *)
let width = 6
let o_adm = 0
let o_submit = 1
let o_est = 2
let o_start = 3
let o_stamp = 4
let o_pos = 5
let sget r slot o = r.sint.((width * slot) + o)
let sset r slot o v = r.sint.((width * slot) + o) <- v

let live r = r.n_jobs - r.completions
let events_seen r = r.n_jobs + r.completions

(* Doubled, in one allocation. *)
let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let alloc_slot r =
  if r.free_top > 0 then begin
    r.free_top <- r.free_top - 1;
    r.free_slots.(r.free_top)
  end
  else begin
    if r.fresh = Array.length r.sjob then begin
      r.sjob <- grow r.sjob dummy_job;
      r.sint <- grow r.sint 0;
      r.free_slots <- grow r.free_slots 0
    end;
    r.fresh <- r.fresh + 1;
    r.fresh - 1
  end

let rebase r t =
  gc r.free t;
  let kept = Timeline.node_count r.free in
  r.gc_nodes <- (if kept >= auto_gc_nodes then 2 * kept else auto_gc_nodes)

let emit_heartbeat r t =
  match r.on_heartbeat with
  | None -> ()
  | Some f ->
    r.hb_seq <- r.hb_seq + 1;
    Metrics.incr m_heartbeats;
    Metrics.set m_live_jobs (live r);
    Metrics.set m_nodes (Timeline.node_count r.free);
    f
      {
        hb_seq = r.hb_seq;
        hb_time = t;
        hb_events = events_seen r;
        hb_admitted = r.n_jobs;
        hb_completed = r.completions;
        hb_queued = Jobq.length r.queue;
        hb_live = live r;
        hb_makespan = r.makespan;
        hb_nodes = Timeline.node_count r.free;
      };
    r.hb_last_ev <- events_seen r

(* A sampler always has a positive cadence ([run_stream]). *)
let heartbeat_due r =
  match r.on_heartbeat with
  | None -> false
  | Some _ -> events_seen r - r.hb_last_ev >= r.hb_every

(* Whether an arrival is ready in the lookahead, pulling one if none is.
   This and [admit] are the engine's one check of its input: both entry
   points feed their arrivals through them. *)
let peek_arrival r =
  r.ready
  || r.last_submit >= 0
     &&
     if r.pull r then begin
       if r.a_submit < 0 then invalid_arg "Simulator: negative submit time";
       if r.a_submit < r.last_submit then
         invalid_arg "Simulator: submit times must be non-decreasing";
       if r.a_est < r.a_job.Job.p then invalid_arg "Simulator: estimate below the actual runtime";
       if r.a_job.Job.q > r.m then invalid_arg "Simulator: job wider than the machine";
       r.last_submit <- r.a_submit;
       r.ready <- true;
       true
     end
     else begin
       r.last_submit <- -1;
       false
     end

(* Admit the lookahead's arrival. *)
let admit r t =
  r.ready <- false;
  let job = r.a_job in
  let id = job.Job.id in
  if not (Ids.add r.live_ids id) then invalid_arg "Simulator: duplicate live job id";
  let slot = alloc_slot r in
  r.sjob.(slot) <- job;
  sset r slot o_adm r.n_jobs;
  sset r slot o_submit r.a_submit;
  sset r slot o_est r.a_est;
  sset r slot o_start (-1);
  r.n_jobs <- r.n_jobs + 1;
  Metrics.incr m_admitted;
  if live r > r.max_live then r.max_live <- live r;
  (* Policies see the estimate, never the actual runtime. *)
  sset r slot o_pos (Jobq.append r.queue ~id ~estimate:r.a_est ~width:job.Job.q ~tag:slot);
  let queued = Jobq.length r.queue in
  if queued > r.max_queued then r.max_queued <- queued;
  if r.tracing then
    Trace.emit r.obs (Trace.Job_submit { time = t; job = id; p = job.Job.p; q = job.Job.q })

(* Completion of the job in [slot] at [t]: give back the over-reserved
   tail, recycle the slot. *)
let complete r t slot =
  let planned_end = sget r slot o_start + sget r slot o_est in
  if t < planned_end then
    Timeline.change r.free ~lo:t ~hi:planned_end ~delta:r.sjob.(slot).Job.q;
  let id = r.sjob.(slot).Job.id in
  Ids.remove r.live_ids id;
  r.sjob.(slot) <- dummy_job;
  r.free_slots.(r.free_top) <- slot;
  r.free_top <- r.free_top + 1;
  r.completions <- r.completions + 1;
  Metrics.incr m_completed;
  (* Outside any decision checkpoint, with every future query at or after
     [t]: the history left of now is dead weight. *)
  if r.gc_every > 0 && r.completions mod r.gc_every = 0 then rebase r t;
  if r.tracing then Trace.emit r.obs (Trace.Job_finish { time = t; job = id })

let rec drain r t =
  if peek_arrival r && r.a_submit <= t then begin
    admit r t;
    drain r t
  end
  else begin
    let times = r.avail.Profile.times in
    if r.edge < Array.length times && times.(r.edge) = t then r.edge <- r.edge + 1;
    if Eventq.peek_time r.events = t then begin
      let pay = Eventq.pop r.events in
      if pay >= 0 then complete r t pay;
      drain r t
    end
  end

(* Retract a failed decision: rolling back its checkpoint [spec] also
   closes any scope the policy left open inside it, so the timeline is as
   it was before the decision when the error propagates. *)
let abandon r spec =
  Timeline.rollback r.free spec;
  Metrics.incr m_checkpoints;
  Metrics.incr m_rollbacks

(* The post-decision passes recurse over the policy's [start_now], whose
   tags are the started jobs' slots, with their state in the run record: a
   decision allocates no closure and no ref.

   Validation: each started slot must hold a waiting job not already
   started this decision; it is stamped with the decision. The result is
   the first started slot whose window is not the [k]-th change in effect
   in the decision's log, a reservation made by [Timeline.reserve], where
   [k] is its place in [start_now]; -1 when every start has its
   reservation. *)
let rec validate r t spec unreserved = function
  | [] -> unreserved
  | slot :: rest ->
    if
      slot < 0 || slot >= r.fresh || sget r slot o_start >= 0
      || sget r slot o_stamp = r.decision_no
    then begin
      abandon r spec;
      raise
        (Policy_error
           (Printf.sprintf "%s started tag %d at t=%d which is not in the queue" r.name slot t))
    end;
    sset r slot o_stamp r.decision_no;
    let k = r.nstart in
    r.nstart <- k + 1;
    let reserved =
      unreserved >= 0
      || Timeline.spec_op_is_reserve r.free spec ~i:k ~start:t ~dur:(sget r slot o_est)
           ~need:r.sjob.(slot).Job.q
    in
    validate r t spec (if reserved then unreserved else slot) rest

(* The commit rule failed: abandon the decision and say why, naming the
   first start left unreserved with what its window offered before the
   decision. *)
let refuse r t spec unreserved =
  abandon r spec;
  if unreserved < 0 then
    raise
      (Policy_error
         (Printf.sprintf "%s left a checkpoint open or changes beyond its %d reservations at t=%d"
            r.name r.nstart t));
  let est = sget r unreserved o_est and job = r.sjob.(unreserved) in
  let q = job.Job.q in
  raise
    (Policy_error
       (Format.asprintf
          "%s started %a at t=%d without reserving it: window [%d,%d) needs %d, offers %d before \
           the decision"
          r.name Job.pp
          (Job.make ~id:job.Job.id ~p:est ~q)
          t t (t + est) q
          (Timeline.min_on r.free ~lo:t ~hi:(t + est))))

(* Apply the validated starts: mark each running, take it out of the queue
   and schedule its completion. *)
let rec apply r t ~metrics = function
  | [] -> ()
  | slot :: rest ->
    let job = r.sjob.(slot) in
    sset r slot o_start t;
    Jobq.kill r.queue (sget r slot o_pos) ~moved:r.moved;
    if metrics then begin
      Metrics.incr m_started;
      Metrics.observe m_wait (t - sget r slot o_submit)
    end;
    r.forced <- false;
    let finish = t + job.Job.p in
    if finish > r.makespan then r.makespan <- finish;
    Eventq.push r.events ~time:finish slot;
    r.on_start (sget r slot o_adm) job (sget r slot o_submit) t;
    apply r t ~metrics rest

(* Next instant with something to do, -1 when the run is over — ints all
   the way down so the steady-state loop allocates nothing. *)
let next_time r =
  let th = Eventq.peek_time r.events in
  let times = r.avail.Profile.times in
  let th =
    if r.edge >= Array.length times then th
    else
      let te = times.(r.edge) in
      if th >= 0 && th < te then th else te
  in
  if not (peek_arrival r) then th else if th >= 0 && th < r.a_submit then th else r.a_submit

(* Start provenance: a job that overtakes an earlier-queued job that stays
   waiting was backfilled; classification happens against the pre-start
   queue order, before the started jobs leave the queue. *)
let trace_starts r t start_now =
  let tags = Jobq.tags r.queue and stop = Jobq.stop r.queue in
  let rec first_wait i =
    if i < stop && (tags.(i) < 0 || sget r tags.(i) o_stamp = r.decision_no) then
      first_wait (i + 1)
    else i
  in
  let first_wait = first_wait (Jobq.first r.queue) in
  List.iter
    (fun slot ->
      let provenance =
        if sget r slot o_pos > first_wait then Trace.Backfilled_ahead_of_head
        else Trace.Started_now
      in
      Trace.emit r.obs
        (Trace.Job_start
           { time = t; job = r.sjob.(slot).Job.id; wait = t - sget r slot o_submit; provenance }))
    start_now

(* Why is the head (the first job left waiting) not running? Checked after
   the starts, against the capacity it actually faces. *)
let trace_head_blocked r t =
  let w = Jobq.first r.queue in
  let slot = (Jobq.tags r.queue).(w) in
  let est = sget r slot o_est in
  let need = (Jobq.widths r.queue).(w) in
  let have = Timeline.min_on r.free ~lo:t ~hi:(t + est) in
  let reason =
    if have >= need then Trace.Held_by_policy
    else begin
      (* Would the job fit with the reservation-blocked windows given back?
         The availability is constant on each of its segments, and
         [drain] has passed every edge up to [t], so segment [edge - 1]
         holds [t]: walk the segments from there and add each one's blocked
         [m - free] to the live timeline's minimum on that piece. *)
      let { Profile.times; caps } = r.avail and hi = t + est in
      let rec scan k lo acc =
        if lo >= hi then acc
        else begin
          let seg_hi =
            if k + 1 < Array.length times && times.(k + 1) < hi then times.(k + 1) else hi
          in
          let v = Timeline.min_on r.free ~lo ~hi:seg_hi + r.m - caps.(k) in
          scan (k + 1) seg_hi (min acc v)
        end
      in
      if scan (r.edge - 1) t max_int >= need then Trace.Blocked_by_reservation
      else Trace.Blocked_by_capacity
    end
  in
  Trace.emit r.obs
    (Trace.Head_blocked
       { time = t; policy = r.name; job = r.sjob.(slot).Job.id; reason; lo = t; hi = t + est; need; have })

(* Consult the policy at [t], with at least one job queued: decide under a
   checkpoint, validate its starts and commit its log, apply the starts,
   trace the decision and push its wake-up. *)
let consult r t =
  let metrics = Metrics.enabled () in
  let t_decide = if metrics then Prof.now_ns () else 0 in
  r.decision_no <- r.decision_no + 1;
  let spec = Timeline.checkpoint r.free in
  let action =
    match r.decide ~time:t ~queue:r.queue ~free:r.free with
    | a -> a
    | exception exn ->
      abandon r spec;
      raise
        (Policy_error (Printf.sprintf "%s raised %s at t=%d" r.name (Printexc.to_string exn) t))
  in
  (* The action is only valid until the policy's next call: read it now. *)
  let start_now = action.Policy.start_now and wake = action.Policy.wake in
  r.nstart <- 0;
  let unreserved = validate r t spec (-1) start_now in
  (* The one commit rule: the policy resolved its own scopes, and the
     decision's log is exactly its starts' reservations, in start order. *)
  if
    unreserved >= 0
    || Timeline.open_checkpoints r.free <> 1
    || Timeline.spec_ops r.free spec <> r.nstart
  then refuse r t spec unreserved;
  Timeline.commit r.free spec;
  if metrics then begin
    Metrics.incr m_commits;
    Metrics.incr m_decisions;
    Metrics.incr m_checkpoints;
    Metrics.observe m_decide_ns (Prof.now_ns () - t_decide);
    Metrics.set m_queue_depth (Jobq.length r.queue)
  end;
  if r.tracing then begin
    Trace.emit r.obs
      (Trace.Decision
         {
           time = t;
           policy = r.name;
           queued = Jobq.length r.queue;
           started = r.nstart;
           wake = (if wake < 0 then None else Some wake);
         });
    if r.nstart > 0 then trace_starts r t start_now
  end;
  apply r t ~metrics start_now;
  if r.tracing && Jobq.length r.queue > 0 then trace_head_blocked r t;
  (* A wake already queued for the same instant (still ahead of [t], since
     it has not popped) would only pop as a no-op. *)
  if wake > t && wake <> r.last_wake then begin
    Eventq.push r.events ~time:wake wake_payload;
    r.last_wake <- wake
  end

let rec loop r =
  let t = next_time r in
  if t < 0 then begin
    if Jobq.length r.queue > 0 then
      if r.forced then begin
        let q = r.queue and h = Jobq.first r.queue in
        raise
          (Policy_error
             (Format.asprintf "%s deadlocked at t=%d with %d queued jobs (head %a)" r.name r.last_t
                (Jobq.length q) Job.pp
                (Job.make ~id:(Jobq.ids q).(h) ~p:(Jobq.estimates q).(h) ~q:(Jobq.widths q).(h))))
      end
      else begin
        (* No event left but jobs wait: past the last breakpoint the whole
           machine is free, so a correct policy must start them; wake it
           once. *)
        r.forced <- true;
        let wake_at = max (r.last_t + 1) (Timeline.last_breakpoint r.free) in
        if r.tracing then Trace.emit r.obs (Trace.Sim_wake { time = wake_at; forced = true });
        Eventq.push r.events ~time:wake_at wake_payload;
        loop r
      end
  end
  else begin
    drain r t;
    (* Keep the timeline's dead past bounded whether or not a [gc_every]
       cadence is set. Collecting here — outside any checkpoint, with all
       future traffic at or after [t] — is invisible to decisions. *)
    if t - Timeline.origin r.free > auto_gc_span || Timeline.node_count r.free > r.gc_nodes then
      rebase r t;
    r.last_t <- t;
    (* A decision with nothing queued can start nothing, and no policy asks
       for a wake-up then: the engine answers it without consulting the
       policy — no checkpoint, no decide, no validation, no commit. Its
       trace line is the one a consultation would have written. *)
    if Jobq.length r.queue = 0 then begin
      Metrics.set m_queue_depth 0;
      if r.tracing then
        Trace.emit r.obs
          (Trace.Decision { time = t; policy = r.name; queued = 0; started = 0; wake = None })
    end
    else consult r t;
    if heartbeat_due r then emit_heartbeat r t;
    loop r
  end

(* One run of the event loop. Arrivals are pulled with [pull] (submit times
   non-decreasing) with one arrival of lookahead. At any instant, due
   arrivals are admitted first, then queued events pop in push order.

   [avail] is the availability the reservations leave on [m] processors
   (validated by the caller). [on_start k job submit start] observes each start, where [k] is the
   job's admission index (0 for the first arrival pulled), so callers
   holding the arrivals in an array write each start back by position.
   [slots] is the initial per-job capacity (it doubles as needed). *)
let run_core ~obs ~policy ~m ~avail ~gc_every ~hb_every ~on_heartbeat ~on_start ~slots pull =
  let r =
    {
      obs;
      tracing = Trace.enabled obs;
      name = policy.Policy.name;
      m;
      (* The policy's per-run state is created here — plans cannot leak
         across runs by construction. *)
      decide = policy.Policy.create ~obs;
      pull;
      on_start;
      on_heartbeat;
      gc_every;
      hb_every;
      avail;
      (* Free capacity lives in one mutable timeline for the whole run (a
         binary search plus the blocks touched per start/release/query),
         filled straight from [avail]'s arrays. Policies work against it
         directly: each decision runs under a checkpoint, committed when
         its log is exactly the started jobs' reservations and rolled back
         with a [Policy_error] otherwise. *)
      free = Timeline.of_profile avail;
      events = Eventq.create ();
      queue = Jobq.create ();
      live_ids = Ids.create slots;
      edge = 0;
      sjob = Array.make slots dummy_job;
      sint = Array.make (width * slots) 0;
      free_slots = Array.make slots 0;
      free_top = 0;
      fresh = 0;
      moved = (fun _ _ -> ());
      nstart = 0;
      decision_no = 0;
      forced = false;
      n_jobs = 0;
      makespan = 0;
      max_queued = 0;
      max_live = 0;
      completions = 0;
      hb_seq = 0;
      hb_last_ev = 0;
      gc_nodes = auto_gc_nodes;
      last_submit = 0;
      ready = false;
      a_job = dummy_job;
      a_submit = 0;
      a_est = 0;
      last_t = -1;
      last_wake = -1;
    }
  in
  (* The queue's compaction report. *)
  r.moved <- (fun slot pos -> sset r slot o_pos pos);
  if Metrics.enabled () then Prof.with_span ~cat:"sim" ("simulate/" ^ r.name) (fun () -> loop r)
  else loop r;
  (* One closing snapshot so the stream always ends on the final state,
     whatever the cadence (also the only row on short runs). *)
  emit_heartbeat r (max r.last_t r.makespan);
  { jobs = r.n_jobs; makespan = r.makespan; max_queued = r.max_queued; max_live = r.max_live }

let run_stream ?(obs = Trace.null) ?(gc_every = 0) ?(heartbeat_every = 0) ?on_heartbeat
    ?(on_record = fun (_ : record) -> ()) ~policy ~m ?(reservations = []) next =
  if gc_every < 0 then invalid_arg "Simulator.run_stream: negative gc_every";
  if heartbeat_every < 0 then invalid_arg "Simulator.run_stream: negative heartbeat_every";
  (* With a sampler attached but no cadence given, default to one snapshot
     every 65536 events — frequent enough to watch a replay live, sparse
     enough to stay invisible in the wall clock. *)
  let hb_every = if on_heartbeat <> None && heartbeat_every = 0 then 65536 else heartbeat_every in
  validate_machine ~m ~reservations;
  run_core ~obs ~policy ~m ~avail:(Instance.availability_of ~m ~reservations) ~gc_every ~hb_every
    ~on_heartbeat
    ~on_start:(fun _ job submit start -> on_record { job; submit; start })
    ~slots:8
    (fun r ->
      match next () with
      | None -> false
      | Some (a : arrival) ->
        r.a_job <- a.job;
        r.a_submit <- a.submit;
        r.a_est <- a.estimate;
        true)

let is_permutation n a =
  Array.length a = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun i ->
      if i < 0 || i >= n || seen.(i) then false
      else begin
        seen.(i) <- true;
        true
      end)
    a

(* Every job submitted at 0, fed to the engine straight from [order]; the
   [k]-th admission is job [order.(k)], so each start is written back to
   its index in the instance as it happens. *)
let run_order ~policy inst order =
  let n = Instance.n_jobs inst in
  if not (is_permutation n order) then
    invalid_arg "Simulator.run_order: order is not a permutation";
  let starts = Array.make n (-1) in
  ignore
    (run_core ~obs:Trace.null ~policy ~m:(Instance.m inst) ~avail:(Instance.availability inst)
       ~gc_every:0 ~hb_every:0 ~on_heartbeat:None
       ~on_start:(fun k _ _ start -> starts.(order.(k)) <- start)
       ~slots:(max 1 n)
       (fun r ->
         r.n_jobs < n
         &&
         let job = Instance.job inst order.(r.n_jobs) in
         r.a_job <- job;
         r.a_submit <- 0;
         r.a_est <- job.Job.p;
         true)
      : stream_stats);
  Schedule.make starts
