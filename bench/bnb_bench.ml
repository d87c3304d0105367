(* Exact-solver benchmark: the speculative timeline-native Bnb.solve against
   the frozen persistent-profile Resa_oracles.Bnb.solve_reference, on the
   FIG2 staircase family and on random reserved instances.

   Each family is a batch of instances (consecutive seeds) solved to
   optimality; batches keep single-instance search-tree noise out of the
   ratios. Reported per family:

     - time-to-optimal wall clock, reference vs speculative (sequential),
     - node throughput (nodes/sec) for both solvers — the data-structure
       win, independent of the speculative solver's stronger pruning,
     - speculative wall clock at pool sizes 1, 2 and 4. *)

open Resa_core
open Resa_gen

let node_limit = 50_000_000

let staircase_seed = 2001

(* Staircase availability (the FIG2 family) with enough identical-size
   collisions to exercise the twin chain; the "reserved" family packs a few
   wide jobs over hundreds of reservations, where the candidate set is
   dominated by availability breakpoints — the regime the timeline-native
   bounds are built for (the reference pays per-segment profile scans and
   O(k) persistent reserves there). Reserved instances are hand-picked
   seeds whose search trees close within the node budget; neighbouring
   seeds can be orders of magnitude harder. *)
let families () =
  let staircase seed n =
    let rng = Prng.create ~seed in
    Random_inst.non_increasing rng ~m:8 ~n ~pmax:8 ~levels:3
  in
  let reserved (m, n, pmax, res, horizon, alpha, seed) =
    let rng = Prng.create ~seed in
    Random_inst.alpha_restricted rng ~m ~n ~alpha ~pmax ~n_reservations:res ~horizon ()
  in
  let batch mk seed0 count n = List.init count (fun i -> mk (seed0 + i) n) in
  if !Perf.small then
    [
      ("staircase", staircase_seed, batch staircase staircase_seed 3 7);
      ("reserved", 2, List.map reserved [ (128, 6, 300, 150, 8000, 0.6, 2) ]);
    ]
  else
    [
      ("staircase", staircase_seed, batch staircase staircase_seed 5 9);
      ( "reserved",
        1,
        List.map reserved
          [
            (64, 6, 200, 100, 4000, 0.6, 1);
            (64, 7, 200, 100, 4000, 0.7, 2);
            (128, 6, 300, 150, 8000, 0.6, 2);
          ] );
    ]

let time f =
  let t0 = Resa_obs.Prof.now_ns () in
  let r = f () in
  (r, float_of_int (Resa_obs.Prof.now_ns () - t0) /. 1e9)

let pretty s =
  if s >= 1.0 then Printf.sprintf "%.2f s" s else Printf.sprintf "%.1f ms" (s *. 1000.)

let run () =
  Printf.printf "\n=== BNB: speculative exact solver vs reference (time to optimal) ===\n";
  let t =
    Resa_stats.Table.create
      ~headers:
        [ "family"; "insts"; "reference"; "speculative"; "speedup"; "nps-ratio"; "pool=2"; "pool=4" ]
  in
  List.iter
    (fun (family, _seed, insts) ->
      let count = List.length insts in
      let solve_all solver =
        List.fold_left
          (fun (cmaxes, nodes) inst ->
            let r = solver ?node_limit:(Some node_limit) inst in
            if not r.Resa_exact.Bnb.optimal then
              failwith (Printf.sprintf "bnb bench: %s instance not solved to optimality" family);
            (r.Resa_exact.Bnb.makespan :: cmaxes, nodes + r.Resa_exact.Bnb.nodes))
          ([], 0) insts
      in
      let (ref_cmaxes, ref_nodes), ref_s = time (fun () -> solve_all Resa_oracles.Bnb.solve_reference) in
      let (new_cmaxes, new_nodes), seq_s =
        time (fun () -> Resa_par.with_domains 1 (fun () -> solve_all Resa_exact.Bnb.solve))
      in
      if ref_cmaxes <> new_cmaxes then
        failwith (Printf.sprintf "bnb bench: makespan mismatch on family %s" family);
      let pool d =
        snd (time (fun () -> Resa_par.with_domains d (fun () -> solve_all Resa_exact.Bnb.solve)))
      in
      let pool2_s = pool 2 and pool4_s = pool 4 in
      let nps_ref = float_of_int ref_nodes /. Float.max ref_s 1e-9 in
      let nps_new = float_of_int new_nodes /. Float.max seq_s 1e-9 in
      let speedup = ref_s /. Float.max seq_s 1e-9 in
      let nps_ratio = nps_new /. Float.max nps_ref 1e-9 in
      Resa_stats.Table.add_row t
        [
          family;
          string_of_int count;
          pretty ref_s;
          pretty seq_s;
          Printf.sprintf "%.1fx" speedup;
          Printf.sprintf "%.1fx" nps_ratio;
          pretty pool2_s;
          pretty pool4_s;
        ])
    (families ());
  print_string (Resa_stats.Table.render t)
