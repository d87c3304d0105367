(* The persistent-[Profile] FCFS, oracle of offline FCFS on the engine. *)

open Resa_core
module Profile = Profile_oracle

let run_order_reference inst order =
  let n = Instance.n_jobs inst in
  if Array.length order <> n then invalid_arg "Fcfs.run_order: order length mismatch";
  let starts = Array.make n (-1) in
  let free = ref (Instance.availability inst) in
  let frontier = ref 0 in
  Array.iter
    (fun i ->
      let j = Instance.job inst i in
      match Profile.earliest_fit !free ~from:!frontier ~dur:(Job.p j) ~need:(Job.q j) with
      | None -> assert false (* q <= m and the tail capacity is m *)
      | Some s ->
        starts.(i) <- s;
        free := Profile.reserve !free ~start:s ~dur:(Job.p j) ~need:(Job.q j);
        frontier := s)
    order;
  Schedule.make starts
