open Resa_core
open Resa_sim

(* Live positions, last first. *)
let fold_live q f acc =
  let tags = Jobq.tags q in
  let rec go i acc =
    if i < Jobq.first q then acc else go (i - 1) (if tags.(i) >= 0 then f i acc else acc)
  in
  go (Jobq.stop q - 1) acc

let to_list q =
  let ids = Jobq.ids q and ests = Jobq.estimates q and widths = Jobq.widths q in
  fold_live q (fun i acc -> Job.make ~id:ids.(i) ~p:ests.(i) ~q:widths.(i) :: acc) []

let tags_of q jobs =
  let ids = Jobq.ids q and tags = Jobq.tags q in
  let tag_of = Hashtbl.create 16 in
  fold_live q (fun i () -> Hashtbl.replace tag_of ids.(i) tags.(i)) ();
  List.map (fun j -> Hashtbl.find tag_of (Job.id j)) jobs

let start q free ~time jobs =
  List.iter
    (fun j -> ignore (Timeline.reserve free ~start:time ~dur:(Job.p j) ~need:(Job.q j) : bool))
    jobs;
  tags_of q jobs
