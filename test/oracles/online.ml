open Resa_core

type report = {
  schedule : Schedule.t;
  batches : int list list;
  batch_starts : int list;
}

(* Reservations clipped to [t, ∞): parts strictly before t are cut away so
   that a full-machine blocker on [0, t) keeps the instance feasible. *)
let clip_reservations inst t =
  Array.to_list (Instance.reservations inst)
  |> List.filter_map (fun r ->
         if Reservation.stop r <= t then None
         else if Reservation.start r >= t then Some r
         else
           Some
             (Reservation.make ~id:(Reservation.id r) ~start:t ~p:(Reservation.stop r - t)
                ~q:(Reservation.q r)))

let run_reference ?(offline = fun i -> Resa_algos.Lsrc.run i) inst ~release =
  let n = Instance.n_jobs inst in
  let starts = Array.make n (-1) in
  let batches = ref [] and batch_starts = ref [] in
  let scheduled = Array.make n false in
  let remaining = ref n in
  let t = ref 0 in
  while !remaining > 0 do
    let batch = ref [] in
    for i = n - 1 downto 0 do
      if (not scheduled.(i)) && release.(i) <= !t then batch := i :: !batch
    done;
    match !batch with
    | [] ->
      (* Idle until the next arrival. *)
      let next = ref max_int in
      Array.iteri (fun i r -> if not scheduled.(i) && r < !next then next := r) release;
      t := max !next (!t + 1)
    | batch ->
      let ids = batch in
      let jobs = List.map (Instance.job inst) ids in
      let blocker =
        if !t > 0 then [ Reservation.make ~id:(-1) ~start:0 ~p:!t ~q:(Instance.m inst) ] else []
      in
      let sub =
        Instance.create_exn ~m:(Instance.m inst)
          ~jobs:(List.mapi (fun k j -> Job.make ~id:k ~p:(Job.p j) ~q:(Job.q j)) jobs)
          ~reservations:(blocker @ clip_reservations inst !t)
      in
      let sched = offline sub in
      (match Schedule.validate sub sched with
      | Ok () -> ()
      | Error v ->
        invalid_arg
          (Format.asprintf
             "Online.run_reference: offline algorithm produced an infeasible schedule: %a"
             Schedule.pp_violation v));
      List.iteri
        (fun k i ->
          starts.(i) <- Schedule.start sched k;
          scheduled.(i) <- true;
          decr remaining)
        ids;
      batches := ids :: !batches;
      batch_starts := !t :: !batch_starts;
      t := max (Schedule.makespan sub sched) (!t + 1)
  done;
  {
    schedule = Schedule.make starts;
    batches = List.rev !batches;
    batch_starts = List.rev !batch_starts;
  }
