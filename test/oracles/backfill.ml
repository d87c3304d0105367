(* The persistent-[Profile] backfilling schedulers, oracles of
   [Simulator.run_order] of [Policy.conservative] and [Policy.easy], and
   the certificate, oracle of [Backfill.no_earlier_job_delayed]. *)

open Resa_core
module Profile = Profile_oracle

let conservative_order_reference inst order =
  let n = Instance.n_jobs inst in
  if Array.length order <> n then invalid_arg "Backfill.conservative_order: order length mismatch";
  let starts = Array.make n (-1) in
  let free = ref (Instance.availability inst) in
  Array.iter
    (fun i ->
      let j = Instance.job inst i in
      match Profile.earliest_fit !free ~from:0 ~dur:(Job.p j) ~need:(Job.q j) with
      | None -> assert false
      | Some s ->
        starts.(i) <- s;
        free := Profile.reserve !free ~start:s ~dur:(Job.p j) ~need:(Job.q j))
    order;
  Schedule.make starts

let easy_order_reference inst order =
  let n = Instance.n_jobs inst in
  if Array.length order <> n then invalid_arg "Backfill.easy_order: order length mismatch";
  let starts = Array.make n (-1) in
  let free = ref (Instance.availability inst) in
  let fits t i =
    let j = Instance.job inst i in
    Profile.min_on !free ~lo:t ~hi:(t + Job.p j) >= Job.q j
  in
  let start_job t i =
    let j = Instance.job inst i in
    starts.(i) <- t;
    free := Profile.reserve !free ~start:t ~dur:(Job.p j) ~need:(Job.q j)
  in
  let earliest i ~from =
    let j = Instance.job inst i in
    Option.get (Profile.earliest_fit !free ~from ~dur:(Job.p j) ~need:(Job.q j))
  in
  (* Pop the longest startable prefix, then backfill behind the head without
     pushing the head's guaranteed start. *)
  let rec step t = function
    | [] -> ()
    | head :: rest when fits t head ->
      start_job t head;
      step t rest
    | head :: rest ->
      let guaranteed = earliest head ~from:t in
      (* Backfill candidates in queue order; keep the ones that must wait. *)
      let rec backfill = function
        | [] -> []
        | i :: tl ->
          if not (fits t i) then i :: backfill tl
          else begin
            (* Tentatively start i; undo if it pushes the head. *)
            let saved = !free in
            start_job t i;
            if earliest head ~from:t > guaranteed then begin
              free := saved;
              starts.(i) <- -1;
              i :: backfill tl
            end
            else backfill tl
          end
      in
      let rest = backfill rest in
      (match Profile.next_breakpoint_after !free t with
      | Some t' -> step t' (head :: rest)
      | None -> assert false)
  in
  step 0 (Array.to_list order);
  Schedule.make starts

let no_earlier_job_delayed_reference inst order sched =
  (* Replan each prefix; every job must sit exactly at its earliest fit given
     only its predecessors in the queue. *)
  let free = ref (Instance.availability inst) in
  let ok = ref true in
  Array.iter
    (fun i ->
      let j = Instance.job inst i in
      let s = Schedule.start sched i in
      (match Profile.earliest_fit !free ~from:0 ~dur:(Job.p j) ~need:(Job.q j) with
      | Some e when e = s -> ()
      | _ -> ok := false);
      if !ok then free := Profile.reserve !free ~start:s ~dur:(Job.p j) ~need:(Job.q j))
    order;
  !ok
