open Resa_core
module Trace = Resa_obs.Trace
module Prof = Resa_obs.Prof
module Metrics = Resa_obs.Metrics

type submitted = { job : Job.t; submit : int }

type arrival = { job : Job.t; submit : int; estimate : int }

type record = { job : Job.t; submit : int; start : int }

type trace = {
  m : int;
  reservations : Reservation.t list;
  records : record list;
  makespan : int;
}

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
   before the engine collects the past on its own, regardless of the
   caller's [gc_every] setting. Every completion leaves segments behind in
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

(* Rebase [free] at [t]. Both triggers — the caller's [gc_every] cadence
   and the span/node bound above — go through here, so both count. *)
let gc free t =
  if Metrics.enabled () then begin
    let before = Timeline.node_count free in
    Timeline.gc free ~upto:t;
    Metrics.incr m_gc_runs;
    Metrics.add m_gc_reclaimed (max 0 (before - Timeline.node_count free))
  end
  else Timeline.gc free ~upto:t

let validate_input ~m ~jobs ~reservations =
  match Instance.validate ~m ~jobs ~reservations with Ok () -> () | Error msg -> invalid_arg msg

(* The single event loop behind [run_stream] and [run]. Arrivals are pulled
   from [next] (submit times non-decreasing) with one arrival of lookahead.
   At any instant, due arrivals are admitted first, then queued events pop
   in push order — so traces are byte-identical whichever entry point feeds
   the loop (enforced by test/test_stream.ml).

   Per-job state lives in struct-of-arrays keyed by a dense slot index
   recycled through a free list, held only while the job is waiting or
   running — a streamed replay's footprint stays proportional to the number
   of *live* jobs rather than the trace length, and the per-event path
   reads flat int arrays instead of chasing a record per job. *)
let run_core ~obs ~policy ~m ~reservations ~gc_every ~hb_every ~hb_dt ~on_heartbeat ~on_record
    (next : unit -> arrival option) =
  (* The machine and the reservation ids are validated as [Instance.create]
     would, with its messages; the sweep checks the capacity. No instance
     and no profile is built. *)
  validate_input ~m ~jobs:[] ~reservations;
  let sweep = Resv_sweep.run ~m reservations in
  let tracing = Trace.enabled obs in
  (* Capacity blocked by reservations alone, for classifying why a job does
     not fit: if it would fit with the blocked windows given back, the
     reservation is the binding constraint. Only built when tracing. *)
  let resv_blocked = lazy (Resv_sweep.unavailability sweep) in
  (* Free capacity lives in one mutable timeline for the whole run (a
     binary search plus the blocks touched per start/release/query),
     filled straight from the sweep. Policies work against it directly:
     each decision runs under a checkpoint; when the speculative log turns
     out to be exactly the started jobs' reservations (every native policy,
     almost every decision) it is committed as the authoritative mutation,
     otherwise it is rolled back and the starts re-validated one by one. *)
  let free = Timeline.of_steps sweep.times sweep.free sweep.len in
  (* Reservation edges — every availability breakpoint, 0 included — are
     decision opportunities for every policy. They are read through a
     cursor over the sweep's breakpoints, not pushed into the event queue:
     [edge] is the next one not yet reached. An edge is a no-op wake that
     only makes its instant a decision instant; at equal times it is
     passed after the arrivals and before the queued events (DESIGN.md
     §7). *)
  let edge = ref 0 in
  let events = Eventq.create () in
  (* The policy's per-run state is created here — plans cannot leak across
     runs by construction. *)
  let decide = policy.Policy.create ~obs in
  let queue = Jobq.create () in
  (* Flat live-job state. [sstamp] marks the decision that started a slot
     (duplicate-start detection without a per-decision set); [spos] is a
     tracing-only scratch for queue positions, valid when the stamp
     matches. *)
  let cap = ref 16 in
  let sjob = ref (Array.make !cap dummy_job) in
  let sid = ref (Array.make !cap 0) in
  let ssubmit = ref (Array.make !cap 0) in
  let sest = ref (Array.make !cap 0) in
  let sstart = ref (Array.make !cap (-1)) in
  let sstamp = ref (Array.make !cap 0) in
  let spos = ref (Array.make !cap 0) in
  let free_slots = ref (Array.init !cap (fun i -> !cap - 1 - i)) in
  let free_top = ref !cap in
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let live_count = ref 0 in
  let grow_slots () =
    let old = !cap in
    let gi r = r := Array.append !r (Array.make old 0) in
    gi sid;
    gi ssubmit;
    gi sest;
    gi sstamp;
    gi spos;
    gi free_slots;
    sstart := Array.append !sstart (Array.make old (-1));
    sjob := Array.append !sjob (Array.make old dummy_job);
    for s = (2 * old) - 1 downto old do
      (!free_slots).(!free_top) <- s;
      incr free_top
    done;
    cap := 2 * old
  in
  let alloc_slot () =
    if !free_top = 0 then grow_slots ();
    decr free_top;
    (!free_slots).(!free_top)
  in
  (* Queue-filter predicate over slot tags, built once: started slots have
     a start time. *)
  let keep_queued slot = (!sstart).(slot) < 0 in
  (* Slots started by the current decision, in start_now order, and their
     count. *)
  let start_slots = ref (Array.make 16 0) in
  let nstart = ref 0 in
  let decision_no = ref 0 in
  let forced = ref false in
  let n_jobs = ref 0 and makespan = ref 0 in
  let max_queued = ref 0 and max_live = ref 0 in
  let completions = ref 0 in
  (* Arrivals admitted + completions drained: the heartbeat sampler's event
     clock. Pure simulation data, so heartbeat cadence is deterministic. *)
  let events_seen = ref 0 in
  let hb_seq = ref 0 and hb_last_ev = ref 0 and hb_last_t = ref 0 in
  (* Segment count past which the timeline is collected (see [auto_gc_nodes]). *)
  let gc_nodes = ref auto_gc_nodes in
  let rebase t =
    gc free t;
    let kept = Timeline.node_count free in
    gc_nodes := if kept >= auto_gc_nodes then 2 * kept else auto_gc_nodes
  in
  let emit_heartbeat t =
    match on_heartbeat with
    | None -> ()
    | Some f ->
      hb_seq := !hb_seq + 1;
      Metrics.incr m_heartbeats;
      Metrics.set m_live_jobs !live_count;
      Metrics.set m_nodes (Timeline.node_count free);
      f
        {
          hb_seq = !hb_seq;
          hb_time = t;
          hb_events = !events_seen;
          hb_admitted = !n_jobs;
          hb_completed = !completions;
          hb_queued = Jobq.length queue;
          hb_live = !live_count;
          hb_makespan = !makespan;
          hb_nodes = Timeline.node_count free;
        };
      hb_last_ev := !events_seen;
      hb_last_t := t
  in
  let heartbeat_due t =
    on_heartbeat <> None
    && ((hb_every > 0 && !events_seen - !hb_last_ev >= hb_every)
       || (hb_dt > 0 && t - !hb_last_t >= hb_dt))
  in
  (* Submit of the last arrival pulled, or -1 once the source has returned
     [None]: from then on it is never called again. Validated submits are
     non-negative, so the mark is unambiguous, and it costs no allocation. *)
  let last_submit = ref 0 in
  let ahead = ref None in
  let peek_arrival () =
    match !ahead with
    | Some _ as a -> a
    | None when !last_submit < 0 -> None
    | None -> (
      match next () with
      | None ->
        last_submit := -1;
        None
      | Some a as r ->
        if a.submit < 0 then invalid_arg "Simulator.run_stream: negative submit time";
        if a.submit < !last_submit then
          invalid_arg "Simulator.run_stream: submit times must be non-decreasing";
        if a.estimate < Job.p a.job then
          invalid_arg "Simulator.run_stream: estimate below the actual runtime";
        if Job.q a.job > m then
          invalid_arg "Simulator.run_stream: job wider than the machine";
        last_submit := a.submit;
        ahead := r;
        r)
  in
  let admit t (a : arrival) =
    let id = Job.id a.job in
    if Hashtbl.mem slot_of id then invalid_arg "Simulator.run_stream: duplicate live job id";
    let slot = alloc_slot () in
    Hashtbl.replace slot_of id slot;
    (!sjob).(slot) <- a.job;
    (!sid).(slot) <- id;
    (!ssubmit).(slot) <- a.submit;
    (!sest).(slot) <- a.estimate;
    (!sstart).(slot) <- -1;
    incr live_count;
    incr n_jobs;
    incr events_seen;
    Metrics.incr m_admitted;
    if !live_count > !max_live then max_live := !live_count;
    (* Policies see the *estimated* job. *)
    Jobq.append queue (Job.make ~id ~p:a.estimate ~q:(Job.q a.job)) ~tag:slot;
    if Jobq.length queue > !max_queued then max_queued := Jobq.length queue;
    if tracing then
      Trace.emit obs (Trace.Job_submit { time = t; job = id; p = Job.p a.job; q = Job.q a.job })
  in
  (* Completion of the job in [slot] at [t]: give back the over-reserved
     tail, recycle the slot. *)
  let complete t slot =
    let planned_end = (!sstart).(slot) + (!sest).(slot) in
    if t < planned_end then
      Timeline.change free ~lo:t ~hi:planned_end ~delta:(Job.q (!sjob).(slot));
    let id = (!sid).(slot) in
    Hashtbl.remove slot_of id;
    (!sjob).(slot) <- dummy_job;
    (!free_slots).(!free_top) <- slot;
    incr free_top;
    decr live_count;
    incr completions;
    incr events_seen;
    Metrics.incr m_completed;
    (* Outside any decision checkpoint, with every future query at or
       after [t]: the history left of now is dead weight. *)
    if gc_every > 0 && !completions mod gc_every = 0 then rebase t;
    if tracing then Trace.emit obs (Trace.Job_finish { time = t; job = id })
  in
  let rec drain t =
    match peek_arrival () with
    | Some a when a.submit <= t ->
      ahead := None;
      admit t a;
      drain t
    | _ ->
      if !edge < sweep.len && sweep.times.(!edge) = t then incr edge;
      if Eventq.peek_time events = t then begin
        let pay = Eventq.pop events in
        if pay >= 0 then complete t pay;
        drain t
      end
  in
  (* Retract a failed decision's speculation — its checkpoint [spec] and
     any the policy left open inside it — so the timeline is consistent
     when the error propagates. *)
  let abandon spec =
    while Timeline.open_checkpoints free > 0 do
      Timeline.rollback free spec
    done;
    Metrics.incr m_checkpoints;
    Metrics.incr m_rollbacks
  in
  (* The post-decision passes are run-level functions recursing over the
     policy's [start_now], with their state in run-level refs: a decision
     allocates no closure and no ref.

     Validation: each started job must be queued and not already started
     this decision. Its slot is appended to [start_slots]; the result says
     whether the speculative log so far is exactly this decision's
     reservation sequence — matched against the authoritative slot state,
     not the policy's job value, so the fast path cannot commit a window
     the slow path would have rejected. *)
  let rec validate t spec exact = function
    | [] -> exact
    | j :: rest ->
      let slot =
        match Hashtbl.find slot_of (Job.id j) with
        | slot when (!sstart).(slot) < 0 && (!sstamp).(slot) <> !decision_no -> slot
        | _ | exception Not_found ->
          abandon spec;
          raise
            (Policy_error
               (Format.asprintf "%s started %a at t=%d which is not in the queue"
                  policy.Policy.name Job.pp j t))
      in
      (!sstamp).(slot) <- !decision_no;
      let k = !nstart in
      if k = Array.length !start_slots then
        start_slots := Array.append !start_slots (Array.make k 0);
      (!start_slots).(k) <- slot;
      nstart := k + 1;
      validate t spec
        (exact
        && Timeline.spec_op_is_reserve free spec ~i:k ~start:t ~dur:(!sest).(slot)
             ~need:(Job.q (!sjob).(slot)))
        rest
  in
  (* Apply the [k]-th start onwards: off the fast path, re-check and
     reserve its window; then mark it running and schedule its
     completion. *)
  let rec apply t fast k = function
    | [] -> ()
    | j :: rest ->
      let slot = (!start_slots).(k) in
      let est = (!sest).(slot) in
      if not fast then begin
        let have = Timeline.min_on free ~lo:t ~hi:(t + est) in
        if have < Job.q j then
          raise
            (Policy_error
               (Format.asprintf
                  "%s started %a at t=%d without capacity: window [%d,%d) needs %d but offers %d"
                  policy.Policy.name Job.pp j t t (t + est) (Job.q j) have));
        Timeline.change free ~lo:t ~hi:(t + est) ~delta:(-Job.q j)
      end;
      (!sstart).(slot) <- t;
      Metrics.incr m_started;
      Metrics.observe m_wait (t - (!ssubmit).(slot));
      forced := false;
      let finish = t + Job.p (!sjob).(slot) in
      if finish > !makespan then makespan := finish;
      Eventq.push events ~time:finish slot;
      on_record { job = (!sjob).(slot); submit = (!ssubmit).(slot); start = t };
      apply t fast (k + 1) rest
  in
  let last_t = ref (-1) in
  (* The last wake pushed after a decision, -1 before any. *)
  let last_wake = ref (-1) in
  (* Next instant with something to do, -1 when the run is over — ints all
     the way down so the steady-state loop allocates nothing. *)
  let next_time () =
    let th = Eventq.peek_time events in
    let th =
      if !edge >= sweep.len then th
      else
        let te = sweep.times.(!edge) in
        if th >= 0 && th < te then th else te
    in
    match peek_arrival () with
    | Some a -> if th >= 0 && th < a.submit then th else a.submit
    | None -> th
  in
  let rec loop () =
    let t = next_time () in
    if t < 0 then begin
      if Jobq.length queue > 0 then
        if !forced then
          raise
            (Policy_error
               (Format.asprintf "%s deadlocked at t=%d with %d queued jobs (head %a)"
                  policy.Policy.name !last_t (Jobq.length queue) Job.pp (Jobq.get queue 0)))
        else begin
          (* No event left but jobs wait: past the last breakpoint the whole
             machine is free, so a correct policy must start them; wake it
             once. *)
          forced := true;
          let wake_at = max (!last_t + 1) (Timeline.last_breakpoint free) in
          if tracing then Trace.emit obs (Trace.Sim_wake { time = wake_at; forced = true });
          Eventq.push events ~time:wake_at wake_payload;
          loop ()
        end
    end
    else begin
      drain t;
      (* Keep the timeline's dead past bounded independently of the
         caller's [gc_every] cadence. Collecting here — outside any
         checkpoint, with all future traffic at or after [t] — is invisible
         to decisions. *)
      if t - Timeline.origin free > auto_gc_span || Timeline.node_count free > !gc_nodes then
        rebase t;
      last_t := t;
      (* A decision with nothing queued can start nothing, and no policy
         asks for a wake-up then: the engine answers it without consulting
         the policy — no checkpoint, no decide, no validation, no commit.
         Its trace line is the one a consultation would have written. *)
      if Jobq.length queue = 0 then begin
        Metrics.set m_queue_depth 0;
        if tracing then
          Trace.emit obs
            (Trace.Decision
               { time = t; policy = policy.Policy.name; queued = 0; started = 0; wake = None })
      end
      else consult t;
      if heartbeat_due t then emit_heartbeat t;
      loop ()
    end
  (* Consult the policy at [t], with at least one job queued: decide under
     a checkpoint, validate and apply its starts, trace the decision and
     push its wake-up. *)
  and consult t =
    let t_decide = if Metrics.enabled () then Prof.now_ns () else 0 in
    decision_no := !decision_no + 1;
    let spec = Timeline.checkpoint free in
    let action =
      match decide ~time:t ~queue ~free with
      | a -> a
      | exception exn ->
        abandon spec;
        raise
          (Policy_error
             (Printf.sprintf "%s raised %s at t=%d" policy.Policy.name
                (Printexc.to_string exn) t))
    in
    (* The action is only valid until the policy's next call: read it now. *)
    let start_now = action.Policy.start_now and wake = action.Policy.wake in
    nstart := 0;
    let exact = validate t spec true start_now in
    (* Fast path: the decision's trial reservations *are* the
       authoritative ones — keep them. Slow path: retract everything the
       policy touched and re-apply per start below. *)
    let fast = exact && Timeline.spec_ops free spec = !nstart in
    if fast then begin
      Timeline.commit free spec;
      Metrics.incr m_commits
    end
    else begin
      Timeline.rollback free spec;
      Metrics.incr m_rollbacks
    end;
    Metrics.incr m_decisions;
    Metrics.incr m_checkpoints;
    if Metrics.enabled () then begin
      Metrics.observe m_decide_ns (Prof.now_ns () - t_decide);
      Metrics.set m_queue_depth (Jobq.length queue)
    end;
    (* Start provenance: a job that overtakes an earlier-queued job that
       stays waiting was backfilled; classification happens against the
       pre-start queue order, before the queue compacts. *)
    if tracing then begin
      Trace.emit obs
        (Trace.Decision
           {
             time = t;
             policy = policy.Policy.name;
             queued = Jobq.length queue;
             started = !nstart;
             wake = (if wake < 0 then None else Some wake);
           });
      if !nstart > 0 then begin
        let nq = Jobq.length queue in
        let first_wait = ref (-1) in
        for i = 0 to nq - 1 do
          let slot = Jobq.tag queue i in
          if (!sstamp).(slot) = !decision_no then (!spos).(slot) <- i
          else if !first_wait < 0 then first_wait := i
        done;
        for k = 0 to !nstart - 1 do
          let slot = (!start_slots).(k) in
          let pos = (!spos).(slot) in
          let provenance =
            if !first_wait >= 0 && pos > !first_wait then Trace.Backfilled_ahead_of_head
            else Trace.Started_now
          in
          Trace.emit obs
            (Trace.Job_start
               {
                 time = t;
                 job = (!sid).(slot);
                 wait = t - (!ssubmit).(slot);
                 provenance;
               })
        done
      end
    end;
    apply t fast 0 start_now;
    (* Why is the head (the first job left waiting) not running? Checked
       after the starts, against the capacity it actually faces. *)
    if tracing then begin
      let nq = Jobq.length queue in
      let rec first_waiting i =
        if i >= nq then -1
        else if (!sstamp).(Jobq.tag queue i) = !decision_no then first_waiting (i + 1)
        else i
      in
      let w = first_waiting 0 in
      if w >= 0 then begin
        let jh = Jobq.get queue w in
        let slot = Jobq.tag queue w in
        let est = (!sest).(slot) in
        let need = Job.q jh in
        let have = Timeline.min_on free ~lo:t ~hi:(t + est) in
        let reason =
          if have >= need then Trace.Held_by_policy
          else begin
            (* Would the job fit with the reservation-blocked windows
               given back? The blocked profile is piecewise constant, so
               walk its segments and add each constant to the live
               timeline's minimum on that span — no profile export. *)
            let rb = Lazy.force resv_blocked in
            let hi = t + est in
            let rec scan lo acc =
              if lo >= hi then acc
              else begin
                let seg_hi =
                  match Profile.next_breakpoint_after rb lo with
                  | Some b when b < hi -> b
                  | _ -> hi
                in
                let v = Timeline.min_on free ~lo ~hi:seg_hi + Profile.value_at rb lo in
                scan seg_hi (min acc v)
              end
            in
            if scan t max_int >= need then Trace.Blocked_by_reservation
            else Trace.Blocked_by_capacity
          end
        in
        Trace.emit obs
          (Trace.Head_blocked
             {
               time = t;
               policy = policy.Policy.name;
               job = (!sid).(slot);
               reason;
               lo = t;
               hi = t + est;
               need;
               have;
             })
      end
    end;
    if !nstart > 0 then Jobq.filter queue keep_queued;
    (* A wake already queued for the same instant (still ahead of [t],
       since it has not popped) would only pop as a no-op. *)
    if wake > t && wake <> !last_wake then begin
      Eventq.push events ~time:wake wake_payload;
      last_wake := wake
    end;
  in
  Prof.with_span ~cat:"sim" ("simulate/" ^ policy.Policy.name) loop;
  (* One closing snapshot so the stream always ends on the final state,
     whatever the cadence (also the only row on short runs). *)
  if on_heartbeat <> None then emit_heartbeat (max !last_t !makespan);
  { jobs = !n_jobs; makespan = !makespan; max_queued = !max_queued; max_live = !max_live }

let run_stream ?(obs = Trace.null) ?(gc_every = 0) ?(heartbeat_every = 0) ?(heartbeat_dt = 0)
    ?on_heartbeat ?(on_record = fun (_ : record) -> ()) ~policy ~m ?(reservations = []) next =
  if gc_every < 0 then invalid_arg "Simulator.run_stream: negative gc_every";
  if heartbeat_every < 0 then invalid_arg "Simulator.run_stream: negative heartbeat_every";
  if heartbeat_dt < 0 then invalid_arg "Simulator.run_stream: negative heartbeat_dt";
  (* With a sampler attached but no cadence given, default to one snapshot
     every 65536 events — frequent enough to watch a replay live, sparse
     enough to stay invisible in the wall clock. *)
  let hb_every =
    if on_heartbeat <> None && heartbeat_every = 0 && heartbeat_dt = 0 then 65536
    else heartbeat_every
  in
  run_core ~obs ~policy ~m ~reservations ~gc_every ~hb_every ~hb_dt:heartbeat_dt ~on_heartbeat
    ~on_record next

let run ?(obs = Trace.null) ~policy ~m ?(reservations = []) ?estimates
    (submissions : submitted list) =
  let subs = Array.of_list submissions in
  let n = Array.length subs in
  let estimates =
    match estimates with
    | None -> Array.map (fun (s : submitted) -> Job.p s.job) subs
    | Some e ->
      if Array.length e <> n then invalid_arg "Simulator.run: estimates length mismatch";
      e
  in
  Array.iteri
    (fun i (s : submitted) ->
      if s.submit < 0 then invalid_arg "Simulator.run: negative submit time";
      if estimates.(i) < Job.p s.job then
        invalid_arg "Simulator.run: estimate below the actual runtime")
    subs;
  (* Ids and widths are validated as [Instance.create] would; the engine
     checks the reservations. *)
  validate_input ~m ~jobs:(List.map (fun (s : submitted) -> s.job) submissions) ~reservations;
  (* Feed the engine in (submit, list position) order: equal submits are
     admitted in list order. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      match Int.compare subs.(i).submit subs.(j).submit with 0 -> Int.compare i j | c -> c)
    order;
  let k = ref 0 in
  let next () =
    if !k >= n then None
    else begin
      let i = order.(!k) in
      incr k;
      Some { job = subs.(i).job; submit = subs.(i).submit; estimate = estimates.(i) }
    end
  in
  let by_id : (int, record) Hashtbl.t = Hashtbl.create (max 16 n) in
  let stats =
    run_core ~obs ~policy ~m ~reservations ~gc_every:0 ~hb_every:0 ~hb_dt:0 ~on_heartbeat:None
      ~on_record:(fun r -> Hashtbl.replace by_id (Job.id r.job) r)
      next
  in
  let records =
    List.map (fun (s : submitted) -> Hashtbl.find by_id (Job.id s.job)) submissions
  in
  { m; reservations; records; makespan = stats.makespan }

(* Record k is job [order.(k)]: mapped back by submission position, as
   job ids are only required to be distinct. *)
let run_order ~policy inst order =
  let subs =
    Array.fold_right (fun i acc -> { job = Instance.job inst i; submit = 0 } :: acc) order []
  in
  let trace =
    run ~policy ~m:(Instance.m inst)
      ~reservations:(Array.to_list (Instance.reservations inst))
      subs
  in
  let starts = Array.make (Array.length order) (-1) in
  List.iteri (fun k (r : record) -> starts.(order.(k)) <- r.start) trace.records;
  Schedule.make starts

let to_offline trace =
  let jobs =
    List.mapi (fun i r -> Job.make ~id:i ~p:(Job.p r.job) ~q:(Job.q r.job)) trace.records
  in
  let inst = Instance.create_exn ~m:trace.m ~jobs ~reservations:trace.reservations in
  let starts = Array.of_list (List.map (fun r -> r.start) trace.records) in
  (inst, Schedule.make starts)
