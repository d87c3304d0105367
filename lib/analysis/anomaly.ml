open Resa_core
open Resa_algos

let makespan_of_order inst order =
  Schedule.makespan inst
    (Resa_sim.Simulator.run_order ~policy:Resa_sim.Policy.aggressive inst order)

let worst_order ?(restarts = 4) ?(iterations = 60) rng inst =
  let n = Instance.n_jobs inst in
  if n = 0 then ([||], 0)
  else begin
    (* Each restart climbs with its own generator, pre-split from [rng]
       by [parallel_replicates] before any restart runs: the fan-out is
       embarrassingly parallel yet bit-identical at any domain count. *)
    let climb rng _idx =
      let order = Array.init n (fun i -> i) in
      Prng.shuffle rng order;
      let current = ref (makespan_of_order inst order) in
      (* Steepest-ascent over random pairwise swaps. *)
      let stale = ref 0 in
      let iter = ref 0 in
      while !iter < iterations && !stale < 2 * n do
        incr iter;
        let i = Prng.int rng ~bound:n and j = Prng.int rng ~bound:n in
        if i <> j then begin
          let tmp = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- tmp;
          let v = makespan_of_order inst order in
          if v > !current then begin
            current := v;
            stale := 0
          end
          else begin
            (* Undo the swap. *)
            let tmp = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- tmp;
            incr stale
          end
        end
      done;
      (order, !current)
    in
    let results = Resa_par.parallel_replicates rng ~n:restarts climb in
    (* Fixed reduction order (ascending restart, strict improvement only)
       reproduces the sequential loop's tie-breaking exactly. *)
    let best_order = ref (Array.init n (fun i -> i)) in
    let best = ref (makespan_of_order inst !best_order) in
    Array.iter
      (fun (order, v) ->
        if v > !best then begin
          best := v;
          best_order := order
        end)
      results;
    (!best_order, !best)
  end

type removal_anomaly = {
  removed : int;
  with_job : int;
  without_job : int;
}

let without_job inst i =
  let jobs =
    Array.to_list (Instance.jobs inst)
    |> List.filteri (fun k _ -> k <> i)
  in
  Instance.with_jobs inst jobs

let find_removal_anomaly inst =
  let full = Schedule.makespan inst (Lsrc.run inst) in
  let n = Instance.n_jobs inst in
  let rec scan i =
    if i >= n then None
    else begin
      let reduced = without_job inst i in
      let v = Schedule.makespan reduced (Lsrc.run reduced) in
      if v > full then Some { removed = i; with_job = full; without_job = v } else scan (i + 1)
    end
  in
  scan 0

type machine_anomaly = {
  m_small : int;
  m_large : int;
  cmax_small : int;
  cmax_large : int;
}

let with_machines inst m =
  Instance.create_exn ~m ~jobs:(Array.to_list (Instance.jobs inst)) ~reservations:[]

let find_machine_anomaly inst =
  if Instance.n_reservations inst > 0 then
    invalid_arg "Anomaly.find_machine_anomaly: reservation-free instances only";
  let m = Instance.m inst in
  let small = Schedule.makespan inst (Lsrc.run inst) in
  let larger = with_machines inst (m + 1) in
  let large = Schedule.makespan larger (Lsrc.run larger) in
  if large > small then
    Some { m_small = m; m_large = m + 1; cmax_small = small; cmax_large = large }
  else None

let check_machine_anomaly inst a =
  Instance.n_reservations inst = 0
  && a.m_small = Instance.m inst
  && a.m_large = a.m_small + 1
  && Schedule.makespan inst (Lsrc.run inst) = a.cmax_small
  &&
  let larger = with_machines inst a.m_large in
  Schedule.makespan larger (Lsrc.run larger) = a.cmax_large
  && a.cmax_large > a.cmax_small

let check_removal_anomaly inst a =
  a.removed >= 0
  && a.removed < Instance.n_jobs inst
  && Schedule.makespan inst (Lsrc.run inst) = a.with_job
  &&
  let reduced = without_job inst a.removed in
  Schedule.makespan reduced (Lsrc.run reduced) = a.without_job
  && a.without_job > a.with_job
