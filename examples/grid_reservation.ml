(* The paper's motivating scenario (section 1.2): a user books an advance
   reservation to demo an application at a scheduled meeting, while the
   batch queue keeps serving ordinary jobs around it. The site enforces the
   alpha cap of section 4.2, so reservations can never block more than
   (1 - alpha) of the machine and list scheduling keeps its 2/alpha
   guarantee.

   Run with: dune exec examples/grid_reservation.exe *)

open Resa_core

let m = 32
let alpha = 0.5

let () =
  Printf.printf "Cluster: %d processors; reservation admission cap: %.0f%% (alpha = %.2f)\n\n"
    m ((1.0 -. alpha) *. 100.0) alpha;

  (* --- 1. Users request advance reservations through the book. --- *)
  let book = Reservation_book.create ~m ~alpha () in
  let requests =
    [
      ("demo at the 10:00 meeting", 100, 20, 16);
      ("cross-site co-allocation", 150, 30, 12);
      ("greedy user wants half+1", 120, 40, 17);
      (* exceeds the cap: rejected *)
      ("second demo, overlapping", 110, 30, 10);
      (* would overlap the first beyond the cap: rejected *)
    ]
  in
  List.iter
    (fun (who, start, p, q) ->
      match Reservation_book.request book ~start ~p ~q with
      | Ok r -> Format.printf "GRANTED  %-28s -> %a@." who Reservation.pp r
      | Error e ->
        Format.printf "REJECTED %-28s (%a)@." who Reservation_book.pp_rejection e)
    requests;
  let reservations = Reservation_book.accepted book in

  (* --- 2. Meanwhile the batch queue receives ordinary jobs. --- *)
  let rng = Prng.create ~seed:2024 in
  let inst = Resa_gen.Random_inst.cluster_workload rng ~m ~n:60 ~max_runtime:60 in
  let arrivals = Resa_gen.Arrivals.poisson rng ~n:60 ~mean_gap:3.0 in
  let subs =
    List.init 60 (fun i ->
        let job = Instance.job inst i in
        Resa_sim.Simulator.{ job; submit = arrivals.(i); estimate = Job.p job })
  in

  (* --- 3. The site scheduler works around the granted reservations. --- *)
  Printf.printf "\n%s\n" Resa_sim.Metrics.header;
  List.iter
    (fun policy ->
      let ms = Resa_sim.Metrics.Stream.create ~m ~reservations () in
      ignore
        (Resa_sim.Simulator.run_stream ~on_record:(Resa_sim.Metrics.Stream.observe ms) ~policy ~m
           ~reservations
           (Seq.to_dispenser (List.to_seq subs))
          : Resa_sim.Simulator.stream_stats);
      let s = Resa_sim.Metrics.Stream.summary ms in
      print_endline (Resa_sim.Metrics.row ~name:policy.Resa_sim.Policy.name s))
    Resa_sim.Policy.all;

  (* --- 4. The reservation holders got exactly their windows. --- *)
  Printf.printf "\nBlocked-capacity profile accepted by the book:\n";
  print_string
    (Gantt.render_profile ~width:70 ~height:8
       (Reservation_book.blocked_profile book)
       ~hi:200)
