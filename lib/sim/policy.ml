open Resa_core
module Trace = Resa_obs.Trace
module Metrics = Resa_obs.Metrics

type action = {
  mutable start_now : int list;
  mutable wake : int;
}

type decide = time:int -> queue:Jobq.t -> free:Timeline.t -> action

type t = {
  name : string;
  create : obs:Resa_obs.Trace.t -> decide;
}

let no_wake = -1

(* A native policy's one action per run: every [decide] refills and returns
   it, so a decision costs no record, no option, only the cons cells of the
   tags it starts. *)
let action () = { start_now = []; wake = no_wake }

(* --- timeline-native policies ------------------------------------------- *)

(* A queued job is its estimate [p] and width [q], read from the queue's
   arrays. *)
let fits free ~time ~p ~q = Timeline.min_on free ~lo:time ~hi:(time + p) >= q

(* Speculative allocation of a [p]-long, [q]-wide window at [time]. The
   simulator's post-decision pass either commits these wholesale — when the
   log is exactly the started jobs' reservations, the common case — or
   rolls them back and re-applies authoritatively. Every call site has just
   verified the window ([fits], or CONS's plan which never exceeds free
   capacity), so the re-checking [Timeline.reserve] would redo a window
   scan per start. *)
let take free ~time ~p ~q = Timeline.reserve_fitting free ~start:time ~dur:p ~need:q

(* Per-policy decision counters (RESA_METRICS). *)
let c_fcfs = Metrics.counter "policy.decide.FCFS"
let c_lsrc = Metrics.counter "policy.decide.LSRC"
let c_easy = Metrics.counter "policy.decide.EASY"
let c_cons = Metrics.counter "policy.decide.CONS"

(* The scan functions below are top-level and read the queue's backing
   arrays by position ([ps] the estimates, [qs] the widths, [tags] to skip
   the dead cells of started jobs and to name the starts, [ids] for trace
   events), so that a decision which starts nothing allocates nothing: no
   closure per decide, no list view of the queue, no call per entry, cons
   cells only for the tags actually started. A wake-up is written into the
   run's action on the way. *)

(* Start the longest startable prefix; the blocked head, if any, yields
   the next wake-up. *)
let rec fcfs_go ~obs ~time act ids ps qs tags free i stop =
  if i >= stop then []
  else if tags.(i) < 0 then fcfs_go ~obs ~time act ids ps qs tags free (i + 1) stop
  else begin
    let p = ps.(i) and q = qs.(i) in
    if fits free ~time ~p ~q then begin
      take free ~time ~p ~q;
      tags.(i) :: fcfs_go ~obs ~time act ids ps qs tags free (i + 1) stop
    end
    else begin
      let at = Timeline.earliest_fit_at free ~from:(time + 1) ~dur:p ~need:q in
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "FCFS"; job = ids.(i); at });
      act.wake <- at;
      []
    end
  end

let fcfs =
  let create ~obs =
    let act = action () in
    fun ~time ~queue ~free ->
      Metrics.incr c_fcfs;
      act.wake <- no_wake;
      act.start_now <-
        fcfs_go ~obs ~time act (Jobq.ids queue) (Jobq.estimates queue) (Jobq.widths queue)
          (Jobq.tags queue) free (Jobq.first queue) (Jobq.stop queue);
      act
  in
  { name = "FCFS"; create }

(* [cap_now] is the free capacity at [time]: a job wider than it cannot
   fit, so it is skipped without a window query, and once it reaches 0 no
   job can start. Each start lowers it by exactly its width. *)
let rec lsrc_go ~time ps qs tags free cap_now i stop =
  if cap_now = 0 || i >= stop then []
  else begin
    let p = ps.(i) and q = qs.(i) in
    if tags.(i) >= 0 && q <= cap_now && fits free ~time ~p ~q then begin
      take free ~time ~p ~q;
      tags.(i) :: lsrc_go ~time ps qs tags free (cap_now - q) (i + 1) stop
    end
    else lsrc_go ~time ps qs tags free cap_now (i + 1) stop
  end

let aggressive =
  let create ~obs:_ =
    let act = action () in
    fun ~time ~queue ~free ->
      Metrics.incr c_lsrc;
      act.start_now <-
        lsrc_go ~time (Jobq.estimates queue) (Jobq.widths queue) (Jobq.tags queue) free
          (Timeline.value_at free time) (Jobq.first queue) (Jobq.stop queue);
      act
  in
  { name = "LSRC"; create }

(* EASY: start the fitting prefix; once the head blocks, protect its
   guaranteed start while backfilling. Each candidate is tried under a
   checkpoint — reserved, the guarantee re-derived — and kept or rolled
   back. *)
let rec easy_prefix ~obs ~time act ids ps qs tags free i stop =
  if i >= stop then []
  else if tags.(i) < 0 then easy_prefix ~obs ~time act ids ps qs tags free (i + 1) stop
  else begin
    let p = ps.(i) and q = qs.(i) in
    if fits free ~time ~p ~q then begin
      take free ~time ~p ~q;
      tags.(i) :: easy_prefix ~obs ~time act ids ps qs tags free (i + 1) stop
    end
    else begin
      let guaranteed = Timeline.earliest_fit_at free ~from:time ~dur:p ~need:q in
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "EASY"; job = ids.(i); at = guaranteed });
      act.wake <- guaranteed;
      easy_backfill ~time ps qs tags free ~hp:p ~hq:q guaranteed (Timeline.value_at free time)
        (i + 1) stop
    end
  end

(* The backfill scan pre-filters on [cap_now] exactly like [lsrc_go]:
   only kept starts lower it, rolled-back trials leave it as it was. The
   head is its estimate [hp] and width [hq]. *)
and easy_backfill ~time ps qs tags free ~hp ~hq guaranteed cap_now i stop =
  if cap_now = 0 || i >= stop then []
  else begin
    let p = ps.(i) and q = qs.(i) in
    if tags.(i) >= 0 && q <= cap_now && fits free ~time ~p ~q then begin
      let mark = Timeline.checkpoint free in
      take free ~time ~p ~q;
      if Timeline.earliest_fit_at free ~from:time ~dur:hp ~need:hq <= guaranteed then begin
        Timeline.commit free mark;
        tags.(i)
        :: easy_backfill ~time ps qs tags free ~hp ~hq guaranteed (cap_now - q) (i + 1) stop
      end
      else begin
        Timeline.rollback free mark;
        easy_backfill ~time ps qs tags free ~hp ~hq guaranteed cap_now (i + 1) stop
      end
    end
    else easy_backfill ~time ps qs tags free ~hp ~hq guaranteed cap_now (i + 1) stop
  end

let easy =
  let create ~obs =
    let act = action () in
    fun ~time ~queue ~free ->
      Metrics.incr c_easy;
      act.wake <- no_wake;
      act.start_now <-
        easy_prefix ~obs ~time act (Jobq.ids queue) (Jobq.estimates queue) (Jobq.widths queue)
          (Jobq.tags queue) free (Jobq.first queue) (Jobq.stop queue);
      act
  in
  { name = "EASY"; create }

(* CONS collects its plan timeline's past once it holds this many
   segments. *)
let plan_gc_nodes = 1024

(* A queued job's promise lives in [stride] ints at [stride * tag] of one
   tag-indexed array (tags are the engine's live slots, dense from 0):
   [seq] numbers the planned jobs in admission order (-1 once launched),
   [start] is the start the plan holds for it, and the job's estimate,
   width and id are copied from the queue at planning, since its queue
   position moves. *)
let stride = 5
let o_seq = 0
let o_start = 1
let o_est = 2
let o_width = 3
let o_id = 4

let conservative =
  let create ~obs =
    let act = action () in
    (* Per-run plan state, freshly scoped by the factory: the plan timeline
       holds availability minus every planned (and once-planned) window;
       [pr] holds the promises, grown (doubling) when a larger tag shows
       up. *)
    let pr = ref (Array.make (8 * stride) (-1)) in
    let plan = ref None in
    (* Segment count past which the plan's past is collected:
       [plan_gc_nodes], or twice what the last collection kept when that was
       already at least as many — a plan whose live future alone exceeds the
       bound would otherwise be collected at every decision. *)
    let gc_nodes = ref plan_gc_nodes in
    (* The number of queued jobs already planned: the simulator only
       appends arrivals at the tail and removes the jobs this policy just
       started, so the unplanned ones are the last [length - known] live
       entries, and planning visits only them. *)
    let known = ref 0 in
    let seq = ref 0 in
    (* Lazy min-heap of (start, seq, tag) promises: the wake-up instant and
       the jobs due now are read off the top, in admission order among
       equal starts. An entry goes stale when its job is replanned or
       launched, or its tag is reused by a later job; it is dropped when it
       surfaces, unless its tag still carries exactly that seq and
       start. *)
    let promises = Int_heap.create () in
    let current s sq tag =
      let o = stride * tag in
      !pr.(o + o_seq) = sq && !pr.(o + o_start) = s
    in
    (* Earliest still-valid promise, popping stale tops on the way; -1 when
       none. All remaining promises are strictly after the current decision
       instant (due ones were consumed as start candidates). *)
    let rec wake_top () =
      if Int_heap.length promises = 0 then no_wake
      else begin
        let s = Int_heap.min_key promises in
        if current s (Int_heap.min_tie promises) (Int_heap.min_value promises) then s
        else begin
          Int_heap.drop_min promises;
          wake_top ()
        end
      end
    in
    let plan_job p ~time tag ~from =
      let a = !pr and o = stride * tag in
      let est = a.(o + o_est) and q = a.(o + o_width) in
      let s = Timeline.earliest_fit_at p ~from ~dur:est ~need:q in
      a.(o + o_start) <- s;
      Int_heap.push promises ~key:s ~tie:a.(o + o_seq) tag;
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "CONS"; job = a.(o + o_id); at = s });
      (* [s] came out of [earliest_fit_at] just above: the window fits by
         construction, skip the checked reserve's second window scan. *)
      Timeline.reserve_fitting p ~start:s ~dur:est ~need:q
    in
    let started = ref 0 in
    (* Launch the jobs whose promise is due, as they surface from the heap.
       A started job never reappears in the queue, so its promise is
       retired. Its plan window stays reserved: the machine really is
       occupied. The start is mirrored on the live timeline: the plan
       guarantees the capacity is there (the plan never exceeds the free
       capacity), and the simulator commits these reservations directly. A
       straggler, due before now (the simulator wakes the policy at every
       promise, so none should be), is replanned from now; if that is now,
       its new entry surfaces in this same pass, in admission order among
       the jobs due now. *)
    let rec launch_due p free ~time =
      if Int_heap.length promises = 0 || Int_heap.min_key promises > time then []
      else begin
        let s = Int_heap.min_key promises and tag = Int_heap.min_value promises in
        let live = current s (Int_heap.min_tie promises) tag in
        Int_heap.drop_min promises;
        let a = !pr and o = stride * tag in
        if live && s = time then begin
          a.(o + o_seq) <- -1;
          take free ~time ~p:a.(o + o_est) ~q:a.(o + o_width);
          incr started;
          tag :: launch_due p free ~time
        end
        else if live then begin
          (* Undo the stale window with the inverse range-add (clamped to
             the plan's gc origin — the collapsed part is never queried
             again), replan from now. *)
          let hi = s + a.(o + o_est) in
          let lo = max s (Timeline.origin p) in
          if lo < hi then Timeline.change p ~lo ~hi ~delta:a.(o + o_width);
          plan_job p ~time tag ~from:time;
          launch_due p free ~time
        end
        else launch_due p free ~time
      end
    in
    fun ~time ~queue ~free ->
      Metrics.incr c_cons;
      let p =
        match !plan with
        | Some p -> p
        | None ->
          (* First decision: seed the plan with the forward capacity, copied
             block by block. *)
          let p = Timeline.copy ~from:time free in
          plan := Some p;
          p
      in
      (* The plan accretes one window per job forever; on streamed replays
         that history is the policy's only unbounded state. Planning only
         ever queries at or after [time], so compacting the past is
         invisible to decisions (and hence to traces). *)
      (* Segment-count trigger rather than a decision cadence: dead segments
         accrue with traffic, not with ticks, and every search pays for
         them. 1024 segments was the fastest of 256…16384 on CONS replays
         of synth-backlog, swf-replay and resv-alpha (EXPERIMENTS.md
         "TIMELINE"). *)
      if Timeline.node_count p > !gc_nodes then begin
        Timeline.gc p ~upto:time;
        let kept = Timeline.node_count p in
        gc_nodes := if kept >= plan_gc_nodes then 2 * kept else plan_gc_nodes
      end;
      let n = Jobq.length queue and stop = Jobq.stop queue in
      let ids = Jobq.ids queue and ests = Jobq.estimates queue and qs = Jobq.widths queue in
      let tags = Jobq.tags queue in
      (* Plan newly arrived jobs at their earliest non-delaying start. *)
      for i = stop - (n - !known) to stop - 1 do
        let tag = tags.(i) in
        while stride * (tag + 1) > Array.length !pr do
          let a = Array.make (2 * Array.length !pr) (-1) in
          Array.blit !pr 0 a 0 (Array.length !pr);
          pr := a
        done;
        let a = !pr and o = stride * tag in
        a.(o + o_seq) <- !seq;
        a.(o + o_est) <- ests.(i);
        a.(o + o_width) <- qs.(i);
        a.(o + o_id) <- ids.(i);
        incr seq;
        plan_job p ~time tag ~from:time
      done;
      started := 0;
      act.start_now <- launch_due p free ~time;
      known := n - !started;
      act.wake <- wake_top ();
      act
  in
  { name = "CONS"; create }

let all = [ fcfs; conservative; easy; aggressive ]
