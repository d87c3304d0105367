open Resa_core

let run_order_reference inst order =
  let n = Instance.n_jobs inst in
  if Array.length order <> n then invalid_arg "Lsrc.run_order: order length mismatch";
  let starts = Array.make n (-1) in
  let free = ref (Instance.availability inst) in
  (* Start, in list order, every pending job whose whole window fits at [t];
     returns the still-pending suffix-preserving list. *)
  let rec place_fitting t = function
    | [] -> []
    | i :: rest ->
      let j = Instance.job inst i in
      if Profile.min_on !free ~lo:t ~hi:(t + Job.p j) >= Job.q j then begin
        starts.(i) <- t;
        free := Profile.reserve !free ~start:t ~dur:(Job.p j) ~need:(Job.q j);
        place_fitting t rest
      end
      else i :: place_fitting t rest
  in
  let rec loop t pending =
    match place_fitting t pending with
    | [] -> ()
    | pending ->
      (match Profile.next_breakpoint_after !free t with
      | Some t' -> loop t' pending
      | None ->
        (* Unreachable: past the last breakpoint the capacity is the full
           machine, so every pending job fits (DESIGN.md §1). *)
        assert false)
  in
  loop 0 (Array.to_list order);
  Schedule.make starts

(* Registry counters (RESA_METRICS): decision instants visited and jobs
   placed by the production list scheduler. *)
let c_instants = Resa_obs.Metrics.counter "lsrc.decision_instants"
let c_placed = Resa_obs.Metrics.counter "lsrc.jobs_placed"

let run_order inst order =
  let n = Instance.n_jobs inst in
  if Array.length order <> n then invalid_arg "Lsrc.run_order: order length mismatch";
  let starts = Array.make n (-1) in
  let free = Timeline.of_profile (Instance.availability inst) in
  let pending = Array.copy order in
  let n_pend = ref n in
  (* Start, in list order, every pending job whose whole window fits at [t],
     compacting survivors in place. [cap_now] (capacity at the instant [t])
     bounds every window minimum from above, so jobs wider than it are
     rejected with an integer compare instead of a tree query. *)
  let place_fitting t =
    let cap_now = ref (Timeline.value_at free t) in
    let w = ref 0 in
    for k = 0 to !n_pend - 1 do
      let i = pending.(k) in
      let j = Instance.job inst i in
      let q = Job.q j in
      if q <= !cap_now && Timeline.min_on free ~lo:t ~hi:(t + Job.p j) >= q then begin
        starts.(i) <- t;
        Timeline.reserve free ~start:t ~dur:(Job.p j) ~need:q;
        Resa_obs.Metrics.incr c_placed;
        cap_now := !cap_now - q
      end
      else begin
        pending.(!w) <- i;
        incr w
      end
    done;
    n_pend := !w
  in
  let rec loop t =
    Resa_obs.Metrics.incr c_instants;
    place_fitting t;
    if !n_pend > 0 then
      match Timeline.next_breakpoint_after free t with
      | Some t' -> loop t'
      | None ->
        (* Unreachable: past the last breakpoint the capacity is the full
           machine, so every pending job fits (DESIGN.md §1). *)
        assert false
  in
  Resa_obs.Prof.with_span ~cat:"algo" "lsrc.run_order" (fun () -> loop 0);
  Schedule.make starts

let run ?(priority = Priority.Fifo) inst = run_order inst (Priority.order priority inst)

let decision_times inst sched =
  let cmax = Schedule.makespan inst sched in
  let avail_bps = Array.to_list (Profile.breakpoints (Instance.availability inst)) in
  let completions =
    List.init (Schedule.n_jobs sched) (fun i -> Schedule.completion inst sched i)
  in
  List.sort_uniq Int.compare
    (List.filter (fun t -> t <= cmax) (0 :: (avail_bps @ completions)))

let is_greedy inst sched =
  match Schedule.validate inst sched with
  | Error _ -> false
  | Ok () ->
    let n = Schedule.n_jobs sched in
    (* Free capacity seen by the scheduler at decision time [t] is the
       availability minus the windows of jobs started at or before [t] —
       jobs started later do not count, they were pending then. Decision
       times are ascending, so one shared timeline swept forward (each
       job's window subtracted exactly once, when the sweep first reaches
       its start) replaces the per-instant profile rebuild over all [n]
       jobs that used to make this check quadratic. The subtracted jobs at
       any prefix use at most what the full (validated) schedule uses, so
       the timeline stays a correct free-capacity function throughout. *)
    let free = Timeline.of_profile (Instance.availability inst) in
    let by_start = Array.init n Fun.id in
    Array.sort (fun a b -> compare (Schedule.start sched a) (Schedule.start sched b)) by_start;
    let next = ref 0 in
    let advance_to t =
      while
        !next < n && Schedule.start sched by_start.(!next) <= t
      do
        let i = by_start.(!next) in
        let s = Schedule.start sched i in
        let j = Instance.job inst i in
        Timeline.change free ~lo:s ~hi:(s + Job.p j) ~delta:(-Job.q j);
        incr next
      done
    in
    (* Maximality: at every decision time, no job that was still pending
       could have had its whole window inserted. *)
    List.for_all
      (fun t ->
        advance_to t;
        let rec jobs_ok i =
          i >= n
          ||
          let s = Schedule.start sched i in
          let j = Instance.job inst i in
          (s <= t || Timeline.min_on free ~lo:t ~hi:(t + Job.p j) < Job.q j)
          && jobs_ok (i + 1)
        in
        jobs_ok 0)
      (decision_times inst sched)
