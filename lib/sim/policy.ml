open Resa_core
module Trace = Resa_obs.Trace
module Metrics = Resa_obs.Metrics

type action = {
  start_now : Job.t list;
  wake : int option;
}

type decide = time:int -> queue:Jobq.t -> free:Timeline.t -> action

type t = {
  name : string;
  create : obs:Resa_obs.Trace.t -> decide;
}

(* The all-constant action is shared: a decision that starts nothing and
   requests no wake-up costs zero words. *)
let idle = { start_now = []; wake = None }

(* --- timeline-native policies ------------------------------------------- *)

let fits free ~time job = Timeline.min_on free ~lo:time ~hi:(time + Job.p job) >= Job.q job

let earliest_at free ~from job =
  Timeline.earliest_fit_at free ~from ~dur:(Job.p job) ~need:(Job.q job)

(* Speculative allocation of [job]'s window at [time]. The simulator's
   post-decision pass either commits these wholesale — when the log is
   exactly the started jobs' reservations, the common case — or rolls them
   back and re-applies authoritatively. Every call site has just verified
   the window ([fits], or CONS's plan which never exceeds free capacity),
   so the re-checking [Timeline.reserve] would redo a descent per start. *)
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
   started. *)

(* Start the longest startable prefix; the blocked head, if any, yields
   the next wake-up. *)
let rec fcfs_go ~obs ~time queue free i n =
  if i >= n then idle
  else begin
    let head = Jobq.get queue i in
    if fits free ~time head then begin
      take free ~time head;
      let rest = fcfs_go ~obs ~time queue free (i + 1) n in
      { rest with start_now = head :: rest.start_now }
    end
    else begin
      let at = earliest_at free ~from:(time + 1) head in
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "FCFS"; job = Job.id head; at });
      { start_now = []; wake = Some at }
    end
  end

let fcfs =
  let create ~obs ~time ~queue ~free =
    Metrics.incr c_fcfs;
    fcfs_go ~obs ~time queue free 0 (Jobq.length queue)
  in
  { name = "FCFS"; create }

let rec lsrc_go ~time queue free i n =
  if i >= n then []
  else begin
    let j = Jobq.get queue i in
    if fits free ~time j then begin
      take free ~time j;
      j :: lsrc_go ~time queue free (i + 1) n
    end
    else lsrc_go ~time queue free (i + 1) n
  end

let aggressive =
  let create ~obs:_ ~time ~queue ~free =
    Metrics.incr c_lsrc;
    match lsrc_go ~time queue free 0 (Jobq.length queue) with
    | [] -> idle
    | started -> { start_now = started; wake = None }
  in
  { name = "LSRC"; create }

(* EASY: start the fitting prefix; once the head blocks, protect its
   guaranteed start while backfilling. Each candidate is tried under a
   checkpoint — reserved, the guarantee re-derived — and kept or rolled
   back. *)
let rec easy_prefix ~obs ~time queue free i n =
  if i >= n then idle
  else begin
    let head = Jobq.get queue i in
    if fits free ~time head then begin
      take free ~time head;
      let rest = easy_prefix ~obs ~time queue free (i + 1) n in
      { rest with start_now = head :: rest.start_now }
    end
    else begin
      let guaranteed = earliest_at free ~from:time head in
      if Trace.enabled obs then
        Trace.emit obs
          (Trace.Planned { time; policy = "EASY"; job = Job.id head; at = guaranteed });
      {
        start_now = easy_backfill ~time queue free head guaranteed (i + 1) n;
        wake = Some guaranteed;
      }
    end
  end

and easy_backfill ~time queue free head guaranteed i n =
  if i >= n then []
  else begin
    let j = Jobq.get queue i in
    if fits free ~time j then begin
      let mark = Timeline.checkpoint free in
      take free ~time j;
      if earliest_at free ~from:time head <= guaranteed then begin
        Timeline.commit free mark;
        j :: easy_backfill ~time queue free head guaranteed (i + 1) n
      end
      else begin
        Timeline.rollback free mark;
        easy_backfill ~time queue free head guaranteed (i + 1) n
      end
    end
    else easy_backfill ~time queue free head guaranteed (i + 1) n
  end

let easy =
  let create ~obs ~time ~queue ~free =
    Metrics.incr c_easy;
    easy_prefix ~obs ~time queue free 0 (Jobq.length queue)
  in
  { name = "EASY"; create }

let conservative =
  let create ~obs =
    (* Per-run plan state, freshly scoped by the factory: the plan timeline
       holds availability minus every planned (and once-planned) window;
       [planned] maps job id to its promised start and the estimated job. *)
    let planned : (int, int * Job.t) Hashtbl.t = Hashtbl.create 64 in
    let plan = ref None in
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
    (* Earliest still-valid promise, popping stale tops on the way. All
       remaining promises are strictly after the current decision instant
       (due ones were consumed as start candidates). *)
    let rec wake_top () =
      if Int_heap.length promises = 0 then None
      else begin
        let s = Int_heap.min_key promises and id = Int_heap.min_value promises in
        match Hashtbl.find planned id with
        | s', _ when s' = s -> Some s
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
      Hashtbl.replace planned (Job.id j) (s, j);
      Int_heap.push promises ~key:s ~tie:(Job.id j) (Job.id j);
      if Trace.enabled obs then
        Trace.emit obs (Trace.Planned { time; policy = "CONS"; job = Job.id j; at = s });
      (* [s] came out of [earliest_fit_at] just above: the window fits by
         construction, skip the checked reserve's second descent. *)
      Timeline.reserve_fitting p ~start:s ~dur:(Job.p j) ~need:(Job.q j);
      s
    in
    fun ~time ~queue ~free ->
      Metrics.incr c_cons;
      let p =
        match !plan with
        | Some p -> p
        | None ->
          (* First decision: seed the plan with the forward capacity (the
             only profile export conservative ever pays, once per run). *)
          let p = Timeline.of_profile (Timeline.to_profile ~from:time free) in
          plan := Some p;
          p
      in
      (* The plan accretes one window per job forever; on streamed replays
         that history is the policy's only unbounded state. Planning only
         ever queries at or after [time], so compacting the past is
         invisible to decisions (and hence to traces). *)
      (* Node-count trigger rather than a decision cadence: what makes plan
         operations slow is the tree outgrowing the cache, and mutation
         garbage accrues with traffic, not with ticks. 16384 nodes is ~1 MB
         of tree — measured ~10% off CONS replay wall time vs the old
         every-4096-decisions rebuild, now that [Timeline.gc] rebuilds
         bottom-up in one pass. *)
      if Timeline.node_count p > 16384 then Timeline.gc p ~upto:time;
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
        | s', _ when s' = s ->
          if not (Hashtbl.mem cand id) then begin
            Hashtbl.replace cand id ();
            incr ncand
          end
        | _ | exception Not_found -> ()
      done;
      (* Launch jobs whose planned instant has come — walking the queue in
         order, so starts and defensive replans happen exactly as the old
         whole-queue filter did. Stragglers (should not happen when
         wake-ups are honoured) are replanned from now. *)
      let start_now =
        if !ncand = 0 then []
        else begin
          let rec sel i remaining =
            if remaining = 0 || i >= n then []
            else begin
              let j = Jobq.get queue i in
              let id = Job.id j in
              if not (Hashtbl.mem cand id) then sel (i + 1) remaining
              else begin
                Hashtbl.remove cand id;
                let s, _ = Hashtbl.find planned id in
                if s = time then j :: sel (i + 1) (remaining - 1)
                else if s < time then begin
                  (* Undo the stale window with the inverse range-add
                     (clamped to the plan's gc origin — the collapsed part
                     is never queried again), replan from now. *)
                  let lo = max s (Timeline.origin p) in
                  if lo < s + Job.p j then
                    Timeline.change p ~lo ~hi:(s + Job.p j) ~delta:(Job.q j);
                  if plan_job p ~time j ~from:time = time then
                    j :: sel (i + 1) (remaining - 1)
                  else sel (i + 1) (remaining - 1)
                end
                else sel (i + 1) (remaining - 1)
              end
            end
          in
          sel 0 !ncand
        end
      in
      (match start_now with
      | [] -> ()
      | _ :: _ ->
        (* A started job never reappears in the queue, so its promise entry
           is dead — dropping it here keeps [planned] proportional to the
           live queue. Its plan window stays reserved: the machine really
           is occupied. *)
        List.iter (fun j -> Hashtbl.remove planned (Job.id j)) start_now;
        (* Mirror the starts on the live timeline: the plan guarantees the
           capacity is there (the plan never exceeds the free capacity),
           and the simulator commits these reservations directly. *)
        List.iter (fun j -> take free ~time j) start_now);
      known := n - (match start_now with [] -> 0 | l -> List.length l);
      let wake = wake_top () in
      match (start_now, wake) with
      | [], None -> idle
      | _ -> { start_now; wake }
  in
  { name = "CONS"; create }

let all = [ fcfs; conservative; easy; aggressive ]

(* --- Profile-based reference oracles ------------------------------------ *)

(* The pre-timeline-native engine, verbatim: every decision exports the
   forward profile once (what the simulator used to hand every policy) and
   re-derives its plan with persistent [Profile] chains. Same names, same
   decisions — the differential suite holds the native policies to that.
   Being oracles, they consume the queue as a plain list. *)

let p_fits free ~time job = Profile.min_on free ~lo:time ~hi:(time + Job.p job) >= Job.q job

let p_earliest free ~from job =
  Option.get (Profile.earliest_fit free ~from ~dur:(Job.p job) ~need:(Job.q job))

let fcfs_reference =
  let create ~obs ~time ~queue ~free =
    let queue = Jobq.to_list queue in
    let free = Timeline.to_profile ~from:time free in
    let rec go free = function
      | [] -> ([], None)
      | head :: rest when p_fits free ~time head ->
        let free = Profile.reserve free ~start:time ~dur:(Job.p head) ~need:(Job.q head) in
        let started, wake = go free rest in
        (head :: started, wake)
      | head :: _ ->
        let at = p_earliest free ~from:(time + 1) head in
        if Trace.enabled obs then
          Trace.emit obs (Trace.Planned { time; policy = "FCFS"; job = Job.id head; at });
        ([], Some at)
    in
    let start_now, wake = go free queue in
    { start_now; wake }
  in
  { name = "FCFS"; create }

let aggressive_reference =
  let create ~obs:_ ~time ~queue ~free =
    let queue = Jobq.to_list queue in
    let free = Timeline.to_profile ~from:time free in
    let rec go free = function
      | [] -> []
      | j :: rest when p_fits free ~time j ->
        let free = Profile.reserve free ~start:time ~dur:(Job.p j) ~need:(Job.q j) in
        j :: go free rest
      | _ :: rest -> go free rest
    in
    { start_now = go free queue; wake = None }
  in
  { name = "LSRC"; create }

let easy_reference =
  let create ~obs ~time ~queue ~free =
    let queue = Jobq.to_list queue in
    let free = Timeline.to_profile ~from:time free in
    let rec pop_prefix free = function
      | head :: rest when p_fits free ~time head ->
        let free = Profile.reserve free ~start:time ~dur:(Job.p head) ~need:(Job.q head) in
        let started, wake = pop_prefix free rest in
        (head :: started, wake)
      | [] -> ([], None)
      | head :: rest ->
        let guaranteed = p_earliest free ~from:time head in
        if Trace.enabled obs then
          Trace.emit obs
            (Trace.Planned { time; policy = "EASY"; job = Job.id head; at = guaranteed });
        let rec backfill free = function
          | [] -> []
          | j :: tl ->
            if p_fits free ~time j then begin
              let free' = Profile.reserve free ~start:time ~dur:(Job.p j) ~need:(Job.q j) in
              if p_earliest free' ~from:time head <= guaranteed then j :: backfill free' tl
              else backfill free tl
            end
            else backfill free tl
        in
        (backfill free rest, Some guaranteed)
    in
    let start_now, wake = pop_prefix free queue in
    { start_now; wake }
  in
  { name = "EASY"; create }

let conservative_reference =
  let create ~obs =
    let planned : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let plan = ref None in
    fun ~time ~queue ~free ->
      let queue = Jobq.to_list queue in
      (* The per-decision snapshot is the cost being measured: the old
         engine rebuilt this profile at every event whether or not the
         decision consulted it. *)
      let snap = Timeline.to_profile ~from:time free in
      let p = match !plan with None -> snap | Some p -> p in
      let p =
        List.fold_left
          (fun p j ->
            if Hashtbl.mem planned (Job.id j) then p
            else begin
              let s = p_earliest p ~from:time j in
              Hashtbl.replace planned (Job.id j) s;
              if Trace.enabled obs then
                Trace.emit obs (Trace.Planned { time; policy = "CONS"; job = Job.id j; at = s });
              Profile.reserve p ~start:s ~dur:(Job.p j) ~need:(Job.q j)
            end)
          p queue
      in
      let p = ref p in
      let start_now =
        List.filter
          (fun j ->
            let s = Hashtbl.find planned (Job.id j) in
            if s = time then true
            else if s < time then begin
              p := Profile.change !p ~lo:s ~hi:(s + Job.p j) ~delta:(Job.q j);
              let s' = p_earliest !p ~from:time j in
              Hashtbl.replace planned (Job.id j) s';
              if Trace.enabled obs then
                Trace.emit obs (Trace.Planned { time; policy = "CONS"; job = Job.id j; at = s' });
              p := Profile.reserve !p ~start:s' ~dur:(Job.p j) ~need:(Job.q j);
              s' = time
            end
            else false)
          queue
      in
      plan := Some !p;
      (* Started ids as a hashset: the membership probe the wake fold needs
         is O(1), where [List.memq start_now] made the fold quadratic in
         the queue length. *)
      let started : (int, unit) Hashtbl.t =
        Hashtbl.create (1 + (2 * List.length start_now))
      in
      List.iter (fun j -> Hashtbl.replace started (Job.id j) ()) start_now;
      let wake =
        List.fold_left
          (fun acc j ->
            if Hashtbl.mem started (Job.id j) then acc
            else begin
              let s = Hashtbl.find planned (Job.id j) in
              if s > time then Some (match acc with None -> s | Some a -> min a s) else acc
            end)
          None queue
      in
      { start_now; wake }
  in
  { name = "CONS"; create }

let all_reference =
  [ fcfs_reference; conservative_reference; easy_reference; aggressive_reference ]
