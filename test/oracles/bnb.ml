(* The persistent-profile branch and bound, oracle of [Resa_exact.Bnb.solve]. *)

open Resa_core
open Resa_algos
open Resa_exact

exception Node_budget_exhausted

(* The incumbent seed, copied from [Resa_exact.Bnb] so the oracle does not
   depend on the production solver's internals. *)
let incumbent_schedule inst =
  (* Cheap good starting incumbent: best of a few list heuristics. *)
  let candidates =
    List.map (fun p -> Lsrc.run ~priority:p inst) Priority.standard
    @ [ Backfill.conservative inst; Backfill.easy inst ]
  in
  match candidates with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun (bs, bm) s ->
        let c = Schedule.makespan inst s in
        if c < bm then (s, c) else (bs, bm))
      (first, Schedule.makespan inst first)
      rest

let solve_reference ?(node_limit = 2_000_000) inst =
  let n = Instance.n_jobs inst in
  let avail = Instance.availability inst in
  let avail_bps = Array.to_list (Profile.breakpoints avail) in
  let incumbent, incumbent_cmax = incumbent_schedule inst in
  let best_sched = ref incumbent and best_cmax = ref incumbent_cmax in
  let starts = Array.make n (-1) in
  let nodes = ref 0 in
  let lb_root = Lower_bounds.best inst in
  let areas = Array.map Job.area (Instance.jobs inst) in
  let durations = Array.map Job.p (Instance.jobs inst) in
  let widths = Array.map Job.q (Instance.jobs inst) in
  let placed = Array.make n false in
  (* Symmetry: among identical jobs force placement by increasing index. *)
  let twin_before = Array.make n (-1) in
  for i = 0 to n - 1 do
    for k = 0 to i - 1 do
      if durations.(k) = durations.(i) && widths.(k) = widths.(i) && twin_before.(i) < 0 then
        twin_before.(i) <- k
    done
  done;
  (* Chronological DFS; ties in start time are explored in increasing job
     index to avoid revisiting permutations of simultaneous starts. *)
  let rec dfs depth t_prev i_prev free completions cur_cmax rem_work =
    incr nodes;
    if !nodes > node_limit then raise Node_budget_exhausted;
    if depth = n then begin
      if cur_cmax < !best_cmax then begin
        best_cmax := cur_cmax;
        best_sched := Schedule.make starts
      end
    end
    else
      let area_lb =
        if rem_work = 0 then 0
        else Lower_bounds.min_time_with_area free ~from:t_prev ~area:rem_work
      in
      if max cur_cmax area_lb < !best_cmax then begin
        let cands =
          List.sort_uniq Int.compare
            (List.filter (fun t -> t >= t_prev) (0 :: (avail_bps @ completions)))
        in
        List.iter
          (fun t ->
            let first_i = if t = t_prev then i_prev + 1 else 0 in
            for i = first_i to n - 1 do
              if
                (not placed.(i))
                && (twin_before.(i) < 0 || placed.(twin_before.(i)))
                && t + durations.(i) < !best_cmax
                && Profile.min_on free ~lo:t ~hi:(t + durations.(i)) >= widths.(i)
              then begin
                placed.(i) <- true;
                starts.(i) <- t;
                let free' = Profile.reserve free ~start:t ~dur:durations.(i) ~need:widths.(i) in
                dfs (depth + 1) t i free'
                  ((t + durations.(i)) :: completions)
                  (max cur_cmax (t + durations.(i)))
                  (rem_work - areas.(i));
                placed.(i) <- false;
                starts.(i) <- -1
              end
            done)
          cands
      end
  in
  let optimal =
    if !best_cmax <= lb_root then true (* incumbent matches a certified lower bound *)
    else
      try
        dfs 0 0 (-1) avail [] 0 (Instance.total_work inst);
        true
      with Node_budget_exhausted -> false
  in
  { Resa_exact.Bnb.makespan = !best_cmax; schedule = !best_sched; optimal; nodes = !nodes }
