(* Bechamel microbenchmarks: algorithm and data-structure throughput. *)

open Bechamel
open Resa_core
open Resa_gen

(* Reduced-size mode for CI smoke runs (--small on the harness). *)
let small = ref false

let workload n =
  let rng = Prng.create ~seed:1234 in
  Random_inst.cluster_workload rng ~m:128 ~n ~max_runtime:100

let reserved_workload_seed = 1235

let reserved_workload n =
  let rng = Prng.create ~seed:reserved_workload_seed in
  Random_inst.alpha_restricted rng ~m:128 ~n ~alpha:0.5 ~pmax:100 ~n_reservations:(n / 5) ()

(* The Bechamel rows are functions, built only when [run] asks for them:
   as toplevel values they would generate workloads and schedule them at
   load time in every executable linking this library, test binary
   included. *)
let algorithm_tests () =
  let make_algo name f =
    List.map
      (fun n ->
        let inst = reserved_workload n in
        Test.make ~name:(Printf.sprintf "%s/n=%d" name n) (Staged.stage (fun () -> f inst)))
      [ 50; 200 ]
  in
  make_algo "lsrc" (fun i -> ignore (Resa_algos.Lsrc.run i))
  @ make_algo "fcfs" (fun i -> ignore (Resa_algos.Fcfs.run i))
  @ make_algo "conservative" (fun i -> ignore (Resa_algos.Backfill.conservative i))
  @ make_algo "easy" (fun i -> ignore (Resa_algos.Backfill.easy i))
  @ make_algo "shelf-ffdh" (fun i -> ignore (Resa_algos.Shelf.run Resa_algos.Shelf.Ffdh i))

let profile_tests () =
  let inst = workload 500 in
  let sched = Resa_algos.Lsrc.run inst in
  let usage = Schedule.usage inst sched in
  [
    Test.make ~name:"profile/usage-build/n=500"
      (Staged.stage (fun () -> ignore (Schedule.usage inst sched)));
    Test.make ~name:"profile/earliest-fit"
      (Staged.stage (fun () -> ignore (Profile.earliest_fit usage ~from:0 ~dur:50 ~need:100)));
    Test.make ~name:"profile/integral"
      (Staged.stage (fun () -> ignore (Profile.integral_on usage ~lo:0 ~hi:10_000)));
  ]

let eventq_tests () =
  [
    Test.make ~name:"eventq/push-pop-1k"
      (Staged.stage (fun () ->
           let q = Resa_sim.Eventq.create () in
           for i = 0 to 999 do
             Resa_sim.Eventq.push q ~time:((i * 7919) mod 1000) i
           done;
           while not (Resa_sim.Eventq.is_empty q) do
             ignore (Resa_sim.Eventq.pop q : int)
           done));
  ]

let simulator_tests () =
  let subs =
    let inst = workload 200 in
    let rng = Prng.create ~seed:7 in
    let arr = Arrivals.poisson rng ~n:200 ~mean_gap:5.0 in
    List.init 200 (fun i -> Resa_sim.Simulator.{ job = Instance.job inst i; submit = arr.(i) })
  in
  [
    Test.make ~name:"simulator/easy/n=200"
      (Staged.stage (fun () ->
           ignore
             (Resa_sim.Simulator.run ~policy:Resa_sim.Policy.easy ~m:128 subs)));
  ]

(* --- engine at 0 ----------------------------------------------------------- *)

let engine_seed = 7

(* Each policy's offline schedule is its online policy run with every job
   submitted at 0 ([Simulator.run_order]): [Lsrc.run_order] and
   [Backfill.easy_order] are exactly that. These rows time it on small
   alpha-restricted instances (m=16, alpha=0.5, pmax=20, n/4 reservations,
   seed 7, FIFO), where the engine's per-run set-up weighs most, against
   the offline bodies FCFS and CONS still keep (DESIGN.md §3). Each cell is
   the median per-run time of 7 batches, alternating when there are two
   columns; a batch repeats the run until it lasts at least 2 ms. Up to
   n=1000 every start must agree with the policy's Profile oracle
   ([Resa_oracles]), or the bench fails; the kept offline bodies must agree
   with the engine at every n. *)
let engine_at_zero () =
  Printf.printf
    "\n=== PERF: engine at 0 (m=16, alpha=0.5, pmax=20, n/4 reservations, FIFO) ===\n";
  let batch f k =
    let t0 = Resa_obs.Prof.now_ns () in
    for _ = 1 to k do
      ignore (f () : Schedule.t)
    done;
    Resa_obs.Prof.now_ns () - t0
  in
  let rec calibrate f k = if k >= 1 lsl 20 || batch f k >= 2_000_000 then k else calibrate f (2 * k) in
  let median a =
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let algos =
    [
      ("lsrc", Resa_sim.Policy.aggressive, Resa_oracles.Lsrc.run_order_reference, None);
      ( "fcfs",
        Resa_sim.Policy.fcfs,
        Resa_oracles.Fcfs.run_order_reference,
        Some Resa_algos.Fcfs.run_order );
      ( "conservative",
        Resa_sim.Policy.conservative,
        Resa_oracles.Backfill.conservative_order_reference,
        Some Resa_algos.Backfill.conservative_order );
      ("easy", Resa_sim.Policy.easy, Resa_oracles.Backfill.easy_order_reference, None);
    ]
  in
  let t =
    Resa_stats.Table.create
      ~headers:[ "algorithm"; "n"; "engine"; "kept offline"; "engine/offline" ]
  in
  List.iter
    (fun n ->
      let inst =
        Random_inst.alpha_restricted (Prng.create ~seed:engine_seed) ~m:16 ~n ~alpha:0.5
          ~pmax:20 ()
      in
      let order = Resa_algos.Priority.order Resa_algos.Priority.Fifo inst in
      List.iter
        (fun (name, policy, oracle, offline) ->
          let engine () =
            Resa_algos.Priority.check_order name inst order;
            Resa_sim.Simulator.run_order ~policy inst order
          in
          let starts = Schedule.starts (engine ()) in
          let differs f = Schedule.starts (f inst order) <> starts in
          if (n <= 1000 && differs oracle) || Option.fold ~none:false ~some:differs offline then
            failwith (Printf.sprintf "engine at 0: %s differs at n=%d" name n);
          let us s = Printf.sprintf "%.1f us" (s *. 1e6) in
          let ke = calibrate engine 1 in
          let es = Array.make 7 0. in
          let cells =
            match offline with
            | None ->
              for b = 0 to 6 do
                es.(b) <- float_of_int (batch engine ke) /. float_of_int ke /. 1e9
              done;
              [ us (median es); "-"; "-" ]
            | Some off ->
              let offline () = off inst order in
              let ko = calibrate offline 1 in
              let os = Array.make 7 0. in
              for b = 0 to 6 do
                es.(b) <- float_of_int (batch engine ke) /. float_of_int ke /. 1e9;
                os.(b) <- float_of_int (batch offline ko) /. float_of_int ko /. 1e9
              done;
              let e = median es and o = median os in
              [ us e; us o; Printf.sprintf "%.2fx" (e /. o) ]
          in
          Resa_stats.Table.add_row t (name :: string_of_int n :: cells))
        algos)
    (if !small then [ 5; 50; 1000 ] else [ 5; 50; 1000; 20_000 ]);
  print_string (Resa_stats.Table.render t)

(* --- timeline vs profile scaling series --------------------------------- *)

(* Whole-schedule wall clock at n in {1k, 5k, 20k}: the blocked timeline
   (sorted breakpoint blocks) against the Profile-backed oracle. The
   quadratic reference is capped per algorithm so the series itself stays
   tractable; above the cap only the timeline column is measured. LSRC is
   left uncapped — its 20k row is the headline before/after number.

   Workload construction fans out over the Resa_par pool; the timed
   sections themselves run sequentially so the measurements never contend
   for cores. *)
let scaling () =
  Printf.printf
    "\n=== PERF: Timeline vs Profile scaling (one full run, m=128, n/5 reservations) ===\n";
  let time f x y =
    let t0 = Sys.time () in
    ignore (f x y);
    Sys.time () -. t0
  in
  let pretty s =
    if s >= 1.0 then Printf.sprintf "%.2f s" s else Printf.sprintf "%.1f ms" (s *. 1000.)
  in
  let algos =
    [
      ("lsrc", Resa_algos.Lsrc.run_order, Resa_oracles.Lsrc.run_order_reference, max_int);
      ("fcfs", Resa_algos.Fcfs.run_order, Resa_oracles.Fcfs.run_order_reference, 5_000);
      ( "conservative",
        Resa_algos.Backfill.conservative_order,
        Resa_oracles.Backfill.conservative_order_reference,
        5_000 );
      ("easy", Resa_algos.Backfill.easy_order, Resa_oracles.Backfill.easy_order_reference, 1_000);
    ]
  in
  let sizes = if !small then [| 1_000 |] else [| 1_000; 5_000; 20_000 |] in
  let prepared =
    Resa_par.parallel_map
      (fun n ->
        let inst = reserved_workload n in
        (n, inst, Resa_algos.Priority.order Resa_algos.Priority.Fifo inst))
      sizes
  in
  let t =
    Resa_stats.Table.create ~headers:[ "algorithm"; "n"; "timeline"; "profile"; "speedup" ]
  in
  Array.iter
    (fun (n, inst, order) ->
      List.iter
        (fun (name, fast, reference, ref_cap) ->
          let fast_s = time fast inst order in
          let speedup =
            if n > ref_cap then None
            else begin
              let ref_s = time reference inst order in
              Some (ref_s, ref_s /. Float.max fast_s 1e-9)
            end
          in
          let ref_cell, speedup_cell =
            match speedup with
            | None -> ("(skipped)", "-")
            | Some (ref_s, sp) -> (pretty ref_s, Printf.sprintf "%.1fx" sp)
          in
          Resa_stats.Table.add_row t
            [ name; string_of_int n; pretty fast_s; ref_cell; speedup_cell ])
        algos)
    prepared;
  print_string (Resa_stats.Table.render t);
  engine_at_zero ()

(* --- simulator scaling series ------------------------------------------- *)

let sim_workload_seed = 1236

(* Reserved online workload: alpha-restricted jobs (mean work ~1.6k
   core-units, so ~13 time units of service at m=128) arriving with mean
   gap 16 — utilization ~0.8, queues stay bounded but never empty. *)
let sim_subs n =
  let rng = Prng.create ~seed:sim_workload_seed in
  let inst =
    Random_inst.alpha_restricted rng ~m:128 ~n ~alpha:0.5 ~pmax:100
      ~n_reservations:(n / 20) ()
  in
  let arr = Arrivals.poisson rng ~n ~mean_gap:16.0 in
  let subs =
    List.init n (fun i -> Resa_sim.Simulator.{ job = Instance.job inst i; submit = arr.(i) })
  in
  (subs, Array.to_list (Instance.reservations inst))

(* Whole-simulation wall clock under all four online policies, timeline-
   native engine vs the retained Profile-snapshot reference policies on the
   same seed. The reference pays one forward-profile export per decision;
   that snapshot walks every not-yet-reached reservation edge, so the
   reference engine is effectively quadratic in n and is capped per policy
   (EASY is allowed the 50k column — that speedup is the headline number —
   the rest stop at 10k). Above the cap only the native column is
   measured; the EASY row at 200k is native-only by construction. *)
let sim_scaling () =
  Printf.printf
    "\n=== PERF: simulator scaling (one full replay, m=128, n/20 reservations) ===\n";
  let time f x =
    let t0 = Resa_obs.Prof.now_ns () in
    ignore (f x);
    float_of_int (Resa_obs.Prof.now_ns () - t0) /. 1e9
  in
  let pretty s =
    if s >= 1.0 then Printf.sprintf "%.2f s" s else Printf.sprintf "%.1f ms" (s *. 1000.)
  in
  let policies =
    [
      ("fcfs", Resa_sim.Policy.fcfs, Resa_oracles.Policy.fcfs_reference, 10_000);
      ( "conservative",
        Resa_sim.Policy.conservative,
        Resa_oracles.Policy.conservative_reference,
        10_000 );
      ("easy", Resa_sim.Policy.easy, Resa_oracles.Policy.easy_reference, 50_000);
      ("lsrc", Resa_sim.Policy.aggressive, Resa_oracles.Policy.aggressive_reference, 10_000);
    ]
  in
  let sizes = if !small then [| 2_000 |] else [| 10_000; 50_000; 200_000 |] in
  let prepared = Resa_par.parallel_map (fun n -> (n, sim_subs n)) sizes in
  let t =
    Resa_stats.Table.create ~headers:[ "policy"; "n"; "timeline"; "profile"; "speedup" ]
  in
  Array.iter
    (fun (n, (subs, reservations)) ->
      List.iter
        (fun (name, native, reference, ref_cap) ->
          let run policy =
            Resa_sim.Simulator.run ~policy ~m:128 ~reservations subs
          in
          let fast_s = time run native in
          let speedup =
            if n > ref_cap then None
            else begin
              let ref_s = time run reference in
              Some (ref_s, ref_s /. Float.max fast_s 1e-9)
            end
          in
          let ref_cell, speedup_cell =
            match speedup with
            | None -> ("(skipped)", "-")
            | Some (ref_s, sp) -> (pretty ref_s, Printf.sprintf "%.1fx" sp)
          in
          Resa_stats.Table.add_row t
            [ name; string_of_int n; pretty fast_s; ref_cell; speedup_cell ])
        policies)
    prepared;
  print_string (Resa_stats.Table.render t)

let run () =
  Printf.printf "\n=== PERF: Bechamel microbenchmarks (ns/run, OLS fit) ===\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false () in
  let t = Resa_stats.Table.create ~headers:[ "benchmark"; "time/run"; "r^2" ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      (* Bechamel hands results back in a hash table: sort by benchmark name
         so table rows and JSON records come out in a deterministic order. *)
      let rows =
        List.sort
          (fun (a, _) (b, _) -> String.compare a b)
          (Hashtbl.fold (fun name raw acc -> (name, raw) :: acc) results [])
      in
      List.iter
        (fun (name, raw) ->
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> v
            | _ -> Float.nan
          in
          let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square est) in
          let pretty =
            if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          Resa_stats.Table.add_row t [ name; pretty; Printf.sprintf "%.3f" r2 ])
        rows)
    (algorithm_tests () @ profile_tests () @ eventq_tests () @ simulator_tests ());
  print_string (Resa_stats.Table.render t);
  scaling ()
