open Resa_core
module Chrome = Resa_obs.Chrome

let chrome_slices ?(process = "simulation") ~m ~reservations (records : Simulator.record list) =
  (* The executed instance, release dates forgotten: job [i] is the [i]-th
     record, started at its start. *)
  let jobs =
    List.mapi (fun i (r : Simulator.record) -> Job.make ~id:i ~p:(Job.p r.job) ~q:(Job.q r.job)) records
  in
  let inst = Instance.create_exn ~m ~jobs ~reservations in
  let sched = Schedule.make (Array.of_list (List.map (fun (r : Simulator.record) -> r.start) records)) in
  let assignment = Gantt.assign_processors inst sched in
  let records = Array.of_list records in
  let slices = ref [] in
  (* Reservations occupy their own track: processor identity for them is a
     rendering choice, not a scheduling fact. *)
  Array.iter
    (fun r ->
      slices :=
        {
          Chrome.process;
          track = "reservations";
          name = Printf.sprintf "R%d" (Reservation.id r);
          cat = "reservation";
          ts_us = Reservation.start r;
          dur_us = max 1 (Reservation.stop r - Reservation.start r);
          args = [ ("q", string_of_int (Reservation.q r)) ];
        }
        :: !slices)
    (Instance.reservations inst);
  Array.iteri
    (fun i procs ->
      let r = records.(i) in
      let j = r.Simulator.job in
      Array.iter
        (fun proc ->
          slices :=
            {
              Chrome.process;
              track = Printf.sprintf "cpu %d" proc;
              name = Printf.sprintf "J%d" (Job.id j);
              cat = "job";
              ts_us = r.Simulator.start;
              dur_us = max 1 (Job.p j);
              args =
                [
                  ("q", string_of_int (Job.q j));
                  ("submit", string_of_int r.Simulator.submit);
                  ("wait", string_of_int (r.Simulator.start - r.Simulator.submit));
                ];
            }
            :: !slices)
        procs)
    assignment;
  List.rev !slices
