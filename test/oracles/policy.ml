open Resa_core
open Resa_sim.Policy
module Trace = Resa_obs.Trace
module Profile = Profile_oracle

(* [Resa_sim.Policy]'s "no extra wake-up" answer. *)
let no_wake = -1

(* The pre-timeline-native engine, verbatim: every decision exports the
   forward profile once (what the simulator used to hand every policy) and
   re-derives its plan with persistent [Profile] chains. Same names, same
   decisions — the differential suite holds the native policies to that.
   Being oracles, they consume the queue as a plain list of jobs, and start
   the jobs they pick through [Jobq_view.start], which reserves them on the
   live timeline and names their queue tags. *)

let p_fits free ~time job = Profile.min_on free ~lo:time ~hi:(time + Job.p job) >= Job.q job

let p_earliest free ~from job =
  Option.get (Profile.earliest_fit free ~from ~dur:(Job.p job) ~need:(Job.q job))

let fcfs_reference =
  let create ~obs ~time ~queue:q ~free:live =
    let queue = Jobq_view.to_list q in
    let free = Timeline.to_profile ~from:time live in
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
    {
      start_now = Jobq_view.start q live ~time start_now;
      wake = Option.value wake ~default:no_wake;
    }
  in
  { name = "FCFS"; create }

let aggressive_reference =
  let create ~obs:_ ~time ~queue:q ~free:live =
    let queue = Jobq_view.to_list q in
    let free = Timeline.to_profile ~from:time live in
    let rec go free = function
      | [] -> []
      | j :: rest when p_fits free ~time j ->
        let free = Profile.reserve free ~start:time ~dur:(Job.p j) ~need:(Job.q j) in
        j :: go free rest
      | _ :: rest -> go free rest
    in
    { start_now = Jobq_view.start q live ~time (go free queue); wake = no_wake }
  in
  { name = "LSRC"; create }

let easy_reference =
  let create ~obs ~time ~queue:q ~free:live =
    let queue = Jobq_view.to_list q in
    let free = Timeline.to_profile ~from:time live in
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
    {
      start_now = Jobq_view.start q live ~time start_now;
      wake = Option.value wake ~default:no_wake;
    }
  in
  { name = "EASY"; create }

let conservative_reference =
  let create ~obs =
    let planned : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let plan = ref None in
    fun ~time ~queue:q ~free:live ->
      let queue = Jobq_view.to_list q in
      (* The per-decision snapshot is the cost being measured: the old
         engine rebuilt this profile at every event whether or not the
         decision consulted it. *)
      let snap = Timeline.to_profile ~from:time live in
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
      {
      start_now = Jobq_view.start q live ~time start_now;
      wake = Option.value wake ~default:no_wake;
    }
  in
  { name = "CONS"; create }

let all_reference =
  [ fcfs_reference; conservative_reference; easy_reference; aggressive_reference ]
