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
   run's action on the way. A start reserves its [p]-long, [q]-wide window
   at [time] with one [Timeline.reserve], which is also the query that
   decides whether the job fits: the simulator commits a decision only when
   its log is exactly these reservations, in start order. *)

(* Start the longest startable prefix; the blocked head, if any, yields
   the next wake-up. *)
let rec fcfs_go ~obs ~time act ids ps qs tags free i stop =
  if i >= stop then []
  else if tags.(i) < 0 then fcfs_go ~obs ~time act ids ps qs tags free (i + 1) stop
  else begin
    let p = ps.(i) and q = qs.(i) in
    if Timeline.reserve free ~start:time ~dur:p ~need:q then
      tags.(i) :: fcfs_go ~obs ~time act ids ps qs tags free (i + 1) stop
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

(* EASY: start the fitting prefix; once the head blocks, protect its
   guaranteed start [g] while backfilling. *)
let rec easy_prefix ~obs ~time act ids ps qs tags free i stop =
  if i >= stop then []
  else if tags.(i) < 0 then easy_prefix ~obs ~time act ids ps qs tags free (i + 1) stop
  else begin
    let p = ps.(i) and q = qs.(i) in
    if Timeline.reserve free ~start:time ~dur:p ~need:q then
      tags.(i) :: easy_prefix ~obs ~time act ids ps qs tags free (i + 1) stop
    else begin
      let guaranteed = Timeline.earliest_fit_at free ~from:time ~dur:p ~need:q in
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "EASY"; job = ids.(i); at = guaranteed });
      act.wake <- guaranteed;
      easy_backfill ~time ps qs tags free ~hp:p ~hq:q guaranteed (Timeline.value_at free time)
        (i + 1) stop
    end
  end

(* The backfill scan. [cap_now] is the free capacity at [time]: a job
   wider than it cannot fit, so it is skipped without a window query, and
   once it reaches 0 no job can start. Each start lowers it by exactly its
   width. The head is its estimate [hp] and width [hq], guaranteed at [g].
   Capacity only falls during a decision, so the head never fits before
   [g], and it fits at [g] before each candidate: a candidate keeps it
   there unless its window overlaps [\[g, g + hp)] where fewer than
   [hq + q] processors are free. So one [min_on] decides a candidate
   before it is reserved, with no trial reservation to undo. With
   [g = max_int] there is no head to protect: every window ends by [g],
   and the scan is LSRC's. *)
and easy_backfill ~time ps qs tags free ~hp ~hq g cap_now i stop =
  if cap_now = 0 || i >= stop then []
  else begin
    let p = ps.(i) and q = qs.(i) in
    if
      tags.(i) >= 0
      && q <= cap_now
      && (time + p <= g || Timeline.min_on free ~lo:g ~hi:(min (time + p) (g + hp)) >= hq + q)
      && Timeline.reserve free ~start:time ~dur:p ~need:q
    then tags.(i) :: easy_backfill ~time ps qs tags free ~hp ~hq g (cap_now - q) (i + 1) stop
    else easy_backfill ~time ps qs tags free ~hp ~hq g cap_now (i + 1) stop
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

(* LSRC, the most aggressive variant: the backfill scan over the whole
   queue, with no head. *)
let aggressive =
  let create ~obs:_ =
    let act = action () in
    fun ~time ~queue ~free ->
      Metrics.incr c_lsrc;
      act.start_now <-
        easy_backfill ~time (Jobq.estimates queue) (Jobq.widths queue) (Jobq.tags queue) free
          ~hp:0 ~hq:0 max_int (Timeline.value_at free time) (Jobq.first queue) (Jobq.stop queue);
      act
  in
  { name = "LSRC"; create }

(* CONS collects its plan timeline's past once it holds this many
   segments. *)
let plan_gc_nodes = 1024

(* A queued job's promise lives in [stride] ints at [stride * tag] of one
   tag-indexed array (tags are the engine's live slots, dense from 0): the
   job's estimate, width and id, copied from the queue at planning, since
   its queue position moves. *)
let stride = 3
let o_est = 0
let o_width = 1
let o_id = 2

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
    (* Min-heap of (start, admission number, tag), one entry per queued
       job: the wake-up instant and the jobs due now are read off the top,
       in admission order among equal starts. Every entry is current. A job
       is planned once, at admission, and never moved. The engine consults
       the policy at every promised instant, because it wakes there and the
       promised job is still queued, so an entry surfaces exactly at its
       start. It is popped as its job launches, before the engine can give
       the tag to a later arrival. *)
    let promises = Int_heap.create () in
    let plan_job p ~time tag =
      let a = !pr and o = stride * tag in
      let est = a.(o + o_est) and q = a.(o + o_width) in
      let s = Timeline.earliest_fit_at p ~from:time ~dur:est ~need:q in
      Int_heap.push promises ~key:s ~tie:!seq tag;
      incr seq;
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "CONS"; job = a.(o + o_id); at = s });
      (* [s] came out of [earliest_fit_at] just above: the window fits. *)
      Timeline.change p ~lo:s ~hi:(s + est) ~delta:(-q)
    in
    let started = ref 0 in
    (* Launch the jobs whose promise is due, as they surface from the heap.
       A started job never reappears in the queue, so its promise is
       retired. Its plan window stays reserved: the machine really is
       occupied. The start is reserved on the live timeline too; the plan
       never exceeds the free capacity, so a window that does not fit there
       is a planning bug, raised as such, and so is a promise found in the
       past. *)
    let rec launch_due free ~time =
      if Int_heap.length promises = 0 || Int_heap.min_key promises > time then []
      else begin
        if Int_heap.min_key promises < time then failwith "CONS: a planned start was missed";
        let tag = Int_heap.min_value promises in
        Int_heap.drop_min promises;
        let a = !pr and o = stride * tag in
        if not (Timeline.reserve free ~start:time ~dur:a.(o + o_est) ~need:a.(o + o_width)) then
          failwith "CONS: a planned window does not fit the free capacity";
        incr started;
        tag :: launch_due free ~time
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
        a.(o + o_est) <- ests.(i);
        a.(o + o_width) <- qs.(i);
        a.(o + o_id) <- ids.(i);
        plan_job p ~time tag
      done;
      started := 0;
      act.start_now <- launch_due free ~time;
      known := n - !started;
      act.wake <- (if Int_heap.length promises = 0 then no_wake else Int_heap.min_key promises);
      act
  in
  { name = "CONS"; create }

let all = [ fcfs; conservative; easy; aggressive ]
