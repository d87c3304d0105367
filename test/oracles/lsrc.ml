(* The persistent-[Profile] LSRC, oracle of offline LSRC on the engine. *)

open Resa_core
module Profile = Profile_oracle

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
