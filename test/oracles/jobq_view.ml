open Resa_sim

let to_list q =
  let jobs = Jobq.jobs q and tags = Jobq.tags q in
  let rec go i acc =
    if i < Jobq.first q then acc else go (i - 1) (if tags.(i) >= 0 then jobs.(i) :: acc else acc)
  in
  go (Jobq.stop q - 1) []
