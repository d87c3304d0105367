open Resa_core
module Trace = Resa_obs.Trace
module Metrics = Resa_obs.Metrics

type action = {
  mutable start_now : Job.t list;
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
   jobs it starts. *)
let action () = { start_now = []; wake = no_wake }

(* --- timeline-native policies ------------------------------------------- *)

let fits free ~time job = Timeline.min_on free ~lo:time ~hi:(time + Job.p job) >= Job.q job

let earliest_at free ~from job =
  Timeline.earliest_fit_at free ~from ~dur:(Job.p job) ~need:(Job.q job)

(* Speculative allocation of [job]'s window at [time]. The simulator's
   post-decision pass either commits these wholesale — when the log is
   exactly the started jobs' reservations, the common case — or rolls them
   back and re-applies authoritatively. Every call site has just verified
   the window ([fits], or CONS's plan which never exceeds free capacity),
   so the re-checking [Timeline.reserve] would redo a window scan per
   start. *)
let take free ~time job =
  Timeline.reserve_fitting free ~start:time ~dur:(Job.p job) ~need:(Job.q job)

(* Per-policy decision counters (RESA_METRICS). *)
let c_fcfs = Metrics.counter "policy.decide.FCFS"
let c_lsrc = Metrics.counter "policy.decide.LSRC"
let c_easy = Metrics.counter "policy.decide.EASY"
let c_cons = Metrics.counter "policy.decide.CONS"

(* The scan functions below are top-level and take the queue by index so
   that a decision which starts nothing allocates nothing: no closure per
   decide, no list view of the queue, cons cells only for jobs actually
   started. A wake-up is written into the run's action on the way. *)

(* Start the longest startable prefix; the blocked head, if any, yields
   the next wake-up. *)
let rec fcfs_go ~obs ~time act queue free i n =
  if i >= n then []
  else begin
    let head = Jobq.get queue i in
    if fits free ~time head then begin
      take free ~time head;
      head :: fcfs_go ~obs ~time act queue free (i + 1) n
    end
    else begin
      let at = earliest_at free ~from:(time + 1) head in
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "FCFS"; job = Job.id head; at });
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
      act.start_now <- fcfs_go ~obs ~time act queue free 0 (Jobq.length queue);
      act
  in
  { name = "FCFS"; create }

(* [cap_now] is the free capacity at [time]: a job wider than it cannot
   fit, so it is skipped without a window query, and once it reaches 0 no
   job can start. Each start lowers it by exactly its width. *)
let rec lsrc_go ~time queue free cap_now i n =
  if i >= n || cap_now = 0 then []
  else begin
    let j = Jobq.get queue i in
    if Job.q j <= cap_now && fits free ~time j then begin
      take free ~time j;
      j :: lsrc_go ~time queue free (cap_now - Job.q j) (i + 1) n
    end
    else lsrc_go ~time queue free cap_now (i + 1) n
  end

let aggressive =
  let create ~obs:_ =
    let act = action () in
    fun ~time ~queue ~free ->
      Metrics.incr c_lsrc;
      act.start_now <-
        lsrc_go ~time queue free (Timeline.value_at free time) 0 (Jobq.length queue);
      act
  in
  { name = "LSRC"; create }

(* EASY: start the fitting prefix; once the head blocks, protect its
   guaranteed start while backfilling. Each candidate is tried under a
   checkpoint — reserved, the guarantee re-derived — and kept or rolled
   back. *)
let rec easy_prefix ~obs ~time act queue free i n =
  if i >= n then []
  else begin
    let head = Jobq.get queue i in
    if fits free ~time head then begin
      take free ~time head;
      head :: easy_prefix ~obs ~time act queue free (i + 1) n
    end
    else begin
      let guaranteed = earliest_at free ~from:time head in
      if Trace.enabled obs then
        Trace.emit obs
          (Trace.Planned { time; policy = "EASY"; job = Job.id head; at = guaranteed });
      act.wake <- guaranteed;
      easy_backfill ~time queue free head guaranteed (Timeline.value_at free time) (i + 1) n
    end
  end

(* The backfill scan pre-filters on [cap_now] exactly like [lsrc_go]:
   only kept starts lower it, rolled-back trials leave it as it was. *)
and easy_backfill ~time queue free head guaranteed cap_now i n =
  if i >= n || cap_now = 0 then []
  else begin
    let j = Jobq.get queue i in
    if Job.q j <= cap_now && fits free ~time j then begin
      let mark = Timeline.checkpoint free in
      take free ~time j;
      if earliest_at free ~from:time head <= guaranteed then begin
        Timeline.commit free mark;
        j :: easy_backfill ~time queue free head guaranteed (cap_now - Job.q j) (i + 1) n
      end
      else begin
        Timeline.rollback free mark;
        easy_backfill ~time queue free head guaranteed cap_now (i + 1) n
      end
    end
    else easy_backfill ~time queue free head guaranteed cap_now (i + 1) n
  end

let easy =
  let create ~obs =
    let act = action () in
    fun ~time ~queue ~free ->
      Metrics.incr c_easy;
      act.wake <- no_wake;
      act.start_now <- easy_prefix ~obs ~time act queue free 0 (Jobq.length queue);
      act
  in
  { name = "EASY"; create }

(* CONS collects its plan timeline's past once it holds this many
   segments. *)
let plan_gc_nodes = 1024

let conservative =
  let create ~obs =
    let act = action () in
    (* Per-run plan state, freshly scoped by the factory: the plan timeline
       holds availability minus every planned (and once-planned) window;
       [planned] maps job id to its promised start. *)
    let planned : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let plan = ref None in
    (* Segment count past which the plan's past is collected:
       [plan_gc_nodes], or twice what the last collection kept when that was
       already at least as many — a plan whose live future alone exceeds the
       bound would otherwise be collected at every decision. *)
    let gc_nodes = ref plan_gc_nodes in
    (* Queued jobs with an index below [known] are exactly the planned
       ones: the simulator only appends arrivals at the tail and removes
       the jobs this policy just started (which leave [planned] too), so
       planning scans the fresh tail instead of the whole queue. *)
    let known = ref 0 in
    (* Lazy min-heap of (start, id) promises: the wake-up instant and the
       jobs due now are read off the top instead of folding over the
       queue. Entries go stale when a job starts or is replanned; they are
       dropped when they surface, after checking [planned] still carries
       exactly that promise. *)
    let promises = Int_heap.create () in
    (* Earliest still-valid promise, popping stale tops on the way; -1 when
       none. All remaining promises are strictly after the current decision
       instant (due ones were consumed as start candidates). *)
    let rec wake_top () =
      if Int_heap.length promises = 0 then no_wake
      else begin
        let s = Int_heap.min_key promises and id = Int_heap.min_value promises in
        match Hashtbl.find planned id with
        | s' when s' = s -> s
        | _ | exception Not_found ->
          Int_heap.drop_min promises;
          wake_top ()
      end
    in
    (* Promises due at (or overdue before) the decision instant, as an id
       set: consumed by one in-order queue pass per starting decision. *)
    let cand : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let plan_job p ~time j ~from =
      let s = Timeline.earliest_fit_at p ~from ~dur:(Job.p j) ~need:(Job.q j) in
      Hashtbl.replace planned (Job.id j) s;
      Int_heap.push promises ~key:s ~tie:(Job.id j) (Job.id j);
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "CONS"; job = Job.id j; at = s });
      (* [s] came out of [earliest_fit_at] just above: the window fits by
         construction, skip the checked reserve's second window scan. *)
      Timeline.reserve_fitting p ~start:s ~dur:(Job.p j) ~need:(Job.q j);
      s
    in
    (* Launch jobs whose planned instant has come — walking the queue in
       order, so starts and defensive replans happen exactly as the old
       whole-queue filter did. Stragglers (should not happen when wake-ups
       are honoured) are replanned from now. *)
    let rec select p queue ~time n i remaining =
      if remaining = 0 || i >= n then []
      else begin
        let j = Jobq.get queue i in
        let id = Job.id j in
        if not (Hashtbl.mem cand id) then select p queue ~time n (i + 1) remaining
        else begin
          Hashtbl.remove cand id;
          let s = Hashtbl.find planned id in
          if s = time then j :: select p queue ~time n (i + 1) (remaining - 1)
          else if s < time then begin
            (* Undo the stale window with the inverse range-add (clamped to
               the plan's gc origin — the collapsed part is never queried
               again), replan from now. *)
            let lo = max s (Timeline.origin p) in
            if lo < s + Job.p j then Timeline.change p ~lo ~hi:(s + Job.p j) ~delta:(Job.q j);
            if plan_job p ~time j ~from:time = time then
              j :: select p queue ~time n (i + 1) (remaining - 1)
            else select p queue ~time n (i + 1) (remaining - 1)
          end
          else select p queue ~time n (i + 1) (remaining - 1)
        end
      end
    in
    (* A started job never reappears in the queue, so its promise entry is
       dead — dropping it keeps [planned] proportional to the live queue.
       Its plan window stays reserved: the machine really is occupied. The
       start is mirrored on the live timeline: the plan guarantees the
       capacity is there (the plan never exceeds the free capacity), and
       the simulator commits these reservations directly. Returns the
       number of starts. *)
    let rec launch free ~time = function
      | [] -> 0
      | j :: rest ->
        Hashtbl.remove planned (Job.id j);
        take free ~time j;
        1 + launch free ~time rest
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
      let n = Jobq.length queue in
      (* Plan newly arrived jobs at their earliest non-delaying start. *)
      for i = !known to n - 1 do
        ignore (plan_job p ~time (Jobq.get queue i) ~from:time)
      done;
      (* Pull every promise due by now off the heap. *)
      let ncand = ref 0 in
      while Int_heap.length promises > 0 && Int_heap.min_key promises <= time do
        let s = Int_heap.min_key promises and id = Int_heap.min_value promises in
        Int_heap.drop_min promises;
        match Hashtbl.find planned id with
        | s' when s' = s ->
          if not (Hashtbl.mem cand id) then begin
            Hashtbl.replace cand id ();
            incr ncand
          end
        | _ | exception Not_found -> ()
      done;
      let start_now = if !ncand = 0 then [] else select p queue ~time n 0 !ncand in
      known := n - launch free ~time start_now;
      act.start_now <- start_now;
      act.wake <- wake_top ();
      act
  in
  { name = "CONS"; create }

let all = [ fcfs; conservative; easy; aggressive ]
