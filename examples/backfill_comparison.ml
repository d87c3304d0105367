(* FCFS vs conservative backfilling vs EASY vs list scheduling (section 2.2
   of the paper), offline and online, on the same workload.

   Offline: exact makespans against the certified lower bound.
   Online:  a synthetic SWF trace replayed through the event simulator.

   Run with: dune exec examples/backfill_comparison.exe *)

open Resa_core
open Resa_algos

let () =
  (* --- Offline comparison on the paper's FCFS-pathological family --- *)
  let m = 8 in
  let inst, opt = Resa_gen.Adversarial.fcfs_bad ~m ~len:24 in
  Printf.printf "FCFS-bad family (m=%d): optimal makespan = %d\n\n" m opt;
  let t = Resa_stats.Table.create ~headers:[ "algorithm"; "makespan"; "ratio vs OPT" ] in
  let row name sched =
    let c = Schedule.makespan inst sched in
    Resa_stats.Table.add_row t
      [ name; string_of_int c; Printf.sprintf "%.2f" (float_of_int c /. float_of_int opt) ]
  in
  row "FCFS" (Fcfs.run inst);
  row "conservative BF" (Backfill.conservative inst);
  row "EASY BF" (Backfill.easy inst);
  row "LSRC (list)" (Lsrc.run inst);
  row "LSRC + LPT" (Lsrc.run ~priority:Priority.Lpt inst);
  row "shelf FFDH" (Shelf.run Shelf.Ffdh inst);
  print_string (Resa_stats.Table.render t);
  Printf.printf
    "\nFCFS pays the full ratio-%d pathology; every backfilling variant collapses it.\n\n" m;

  (* --- Online comparison on a synthetic cluster trace --- *)
  let rng = Prng.create ~seed:7 in
  let subs =
    Seq.of_dispenser
      (Resa_swf.Swf_stream.synthetic rng ~m:64 ~n:300 ~max_runtime:120 ~mean_gap:2.0)
    |> Seq.map (fun (a : Resa_swf.Swf_stream.arrival) ->
           Resa_sim.Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate })
    |> List.of_seq
  in
  Printf.printf "Online replay of a synthetic SWF trace (m=64, n=300):\n\n%s\n"
    Resa_sim.Metrics.header;
  List.iter
    (fun policy ->
      let trace = Resa_sim.Simulator.run ~policy ~m:64 subs in
      print_endline
        (Resa_sim.Metrics.row ~name:policy.Resa_sim.Policy.name
           (Resa_sim.Metrics.summarize trace)))
    Resa_sim.Policy.all;
  Printf.printf
    "\nThe online ordering mirrors the offline one: backfilling recovers most of the\n\
     utilization FCFS wastes, and the aggressive list policy packs tightest at the\n\
     price of guaranteed-start fairness.\n"
