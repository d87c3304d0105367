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
  let usage_timeline = Timeline.of_profile usage in
  [
    Test.make ~name:"profile/usage-build/n=500"
      (Staged.stage (fun () -> ignore (Schedule.usage inst sched)));
    Test.make ~name:"timeline/earliest-fit"
      (Staged.stage (fun () -> ignore (Timeline.earliest_fit_at usage_timeline ~from:0 ~dur:50 ~need:100)));
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
    List.init 200 (fun i ->
        let job = Instance.job inst i in
        Resa_sim.Simulator.{ job; submit = arr.(i); estimate = Job.p job })
  in
  [
    Test.make ~name:"simulator/easy/n=200"
      (Staged.stage (fun () ->
           ignore
             (Resa_sim.Simulator.run_stream ~policy:Resa_sim.Policy.easy ~m:128
                (Seq.to_dispenser (List.to_seq subs))
               : Resa_sim.Simulator.stream_stats)));
  ]

(* --- engine at 0 ----------------------------------------------------------- *)

let engine_seed = 7

(* Each policy's offline schedule is its online policy run with every job
   submitted at 0 ([Simulator.run_order], which [Lsrc.run], [Fcfs.run] and
   [Backfill.conservative]/[easy] call). These rows time it on small
   alpha-restricted instances (m=16, alpha=0.5, pmax=20, n/4 reservations,
   seed 7, FIFO), where the engine's per-run set-up weighs most
   (DESIGN.md §3), against the policy's Profile oracle ([Resa_oracles]).
   Each cell is the median per-run time of 7 batches; a batch repeats the
   run until it lasts at least 2 ms. The oracle is quadratic, so it runs
   up to n=1000 only; there every start must agree with it, or the bench
   fails. *)
let scaling () =
  Printf.printf
    "\n=== PERF: engine at 0 vs Profile oracle (m=16, alpha=0.5, pmax=20, n/4 reservations, \
     FIFO) ===\n";
  let batch f k =
    let t0 = Resa_obs.Prof.now_ns () in
    for _ = 1 to k do
      ignore (f () : Schedule.t)
    done;
    Resa_obs.Prof.now_ns () - t0
  in
  let rec calibrate f k = if k >= 1 lsl 20 || batch f k >= 2_000_000 then k else calibrate f (2 * k) in
  let per_run f =
    let k = calibrate f 1 in
    let ts = Array.init 7 (fun _ -> float_of_int (batch f k) /. float_of_int k) in
    Array.sort Float.compare ts;
    ts.(3)
  in
  let pretty ns =
    if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.1f ms" (ns /. 1e6)
    else Printf.sprintf "%.1f us" (ns /. 1e3)
  in
  let algos =
    [
      ("lsrc", Resa_sim.Policy.aggressive, Resa_oracles.Lsrc.run_order_reference);
      ("fcfs", Resa_sim.Policy.fcfs, Resa_oracles.Fcfs.run_order_reference);
      ( "conservative",
        Resa_sim.Policy.conservative,
        Resa_oracles.Backfill.conservative_order_reference );
      ("easy", Resa_sim.Policy.easy, Resa_oracles.Backfill.easy_order_reference);
    ]
  in
  let t =
    Resa_stats.Table.create ~headers:[ "algorithm"; "n"; "engine"; "oracle"; "speedup" ]
  in
  List.iter
    (fun n ->
      let inst =
        Random_inst.alpha_restricted (Prng.create ~seed:engine_seed) ~m:16 ~n ~alpha:0.5
          ~pmax:20 ()
      in
      let order = Resa_algos.Priority.order Resa_algos.Priority.Fifo inst in
      List.iter
        (fun (name, policy, oracle) ->
          let engine () = Resa_sim.Simulator.run_order ~policy inst order in
          let e = per_run engine in
          let oracle_cell, speedup_cell =
            if n > 1000 then ("(skipped)", "-")
            else begin
              if Schedule.starts (oracle inst order) <> Schedule.starts (engine ()) then
                failwith (Printf.sprintf "engine at 0: %s differs at n=%d" name n);
              let o = per_run (fun () -> oracle inst order) in
              (pretty o, Printf.sprintf "%.1fx" (o /. Float.max e 1.))
            end
          in
          Resa_stats.Table.add_row t [ name; string_of_int n; pretty e; oracle_cell; speedup_cell ])
        algos)
    (if !small then [ 5; 50; 1000 ] else [ 5; 50; 1000; 20_000 ]);
  print_string (Resa_stats.Table.render t)

(* --- timeline operations ------------------------------------------------ *)

(* ns per [Timeline.change] and per [Timeline.min_on] on timelines of 8, 64
   and 512 segments (steps every 10 time units). Both run over the same
   1024 random windows of 1 to 30 units: each window is changed by -1 and
   then by +1, which puts its two ends in as breakpoints and takes them
   out again, so the timeline is the same after every pair. Each of 11
   rounds times one batch of changes and then one of queries; a batch
   repeats the windows until it lasts at least 2 ms (0.2 ms with
   [--small]). The cells are the medians over the rounds, and the ratio
   is the median of the rounds' ratios, so a slow spell of the machine
   weighs on both sides of it. *)
let timeline_ops () =
  Printf.printf "\n=== PERF: timeline change vs min_on (ns/op) ===\n";
  let nwin = 1024 and rounds = 11 in
  let min_ns = if !small then 200_000 else 2_000_000 in
  let batch f k =
    let t0 = Resa_obs.Prof.now_ns () in
    for _ = 1 to k do
      f ()
    done;
    Resa_obs.Prof.now_ns () - t0
  in
  let rec calibrate f k = if k >= 1 lsl 20 || batch f k >= min_ns then k else calibrate f (2 * k) in
  let median a =
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let t = Resa_stats.Table.create ~headers:[ "segments"; "change"; "min_on"; "change/min_on" ] in
  List.iter
    (fun n ->
      let times = Array.init n (fun i -> 10 * i) in
      let values = Array.init n (fun i -> 100 + (5 * (i mod 3))) in
      let tl = Timeline.of_steps times values n in
      let rng = Prng.create ~seed:engine_seed in
      let lo = Array.init nwin (fun _ -> Prng.int rng ~bound:(10 * n)) in
      let hi = Array.map (fun l -> l + Prng.int_incl rng ~lo:1 ~hi:30) lo in
      let change () =
        for w = 0 to nwin - 1 do
          Timeline.change tl ~lo:lo.(w) ~hi:hi.(w) ~delta:(-1);
          Timeline.change tl ~lo:lo.(w) ~hi:hi.(w) ~delta:1
        done
      in
      let sink = ref 0 in
      let query () =
        for w = 0 to nwin - 1 do
          sink := !sink + Timeline.min_on tl ~lo:lo.(w) ~hi:hi.(w)
        done
      in
      let kc = calibrate change 1 and kq = calibrate query 1 in
      let c = Array.make rounds 0. and q = Array.make rounds 0. in
      for r = 0 to rounds - 1 do
        c.(r) <- float_of_int (batch change kc) /. float_of_int (2 * kc * nwin);
        q.(r) <- float_of_int (batch query kq) /. float_of_int (kq * nwin)
      done;
      let ratio = median (Array.init rounds (fun r -> c.(r) /. q.(r))) in
      if Timeline.node_count tl <> n || !sink = 0 then failwith "timeline ops: timeline changed";
      Resa_stats.Table.add_row t
        [
          string_of_int n;
          Printf.sprintf "%.0f" (median c);
          Printf.sprintf "%.0f" (median q);
          Printf.sprintf "%.2fx" ratio;
        ])
    [ 8; 64; 512 ];
  print_string (Resa_stats.Table.render t)

(* --- alpha-admission ------------------------------------------------------ *)

(* Wall time of [R] reservation requests on a fresh [Reservation_book] (m =
   128, alpha = 0.5, so the cap is 64): starts uniform in [\[0, 100R)],
   durations in [\[1, 1000\]] and widths in [\[1, 64\]] (seed 7), so
   about five requests overlap an instant and many are refused. Next to it
   the persistent-profile book of [Resa_oracles], up to 4k requests (1k
   with [--small]): it is quadratic, and every result must equal the
   book's, or the bench fails. The last row generates the scaling family's
   largest instance ([Random_inst.alpha_restricted] at m = 16, n = 20000,
   alpha = 0.5, pmax = 20, n/4 reservations, seed 7; n = 1000 with
   [--small]), whose reservations go through the book. Each cell is the
   median of 5 runs. *)
let admission () =
  Printf.printf "\n=== PERF: alpha-admission (book vs Profile oracle) ===\n";
  let median_s f =
    let ts =
      Array.init 5 (fun _ ->
          let t0 = Resa_obs.Prof.now_ns () in
          f ();
          float_of_int (Resa_obs.Prof.now_ns () - t0) /. 1e9)
    in
    Array.sort Float.compare ts;
    ts.(2)
  in
  let pretty s = if s >= 1.0 then Printf.sprintf "%.2f s" s else Printf.sprintf "%.2f ms" (s *. 1e3) in
  let requests r =
    let rng = Prng.create ~seed:engine_seed in
    Array.init r (fun _ ->
        let start = Prng.int rng ~bound:(100 * r) in
        let p = Prng.int_incl rng ~lo:1 ~hi:1000 in
        (start, p, Prng.int_incl rng ~lo:1 ~hi:64))
  in
  let admit create request reqs =
    let book = create () in
    Array.map (fun (start, p, q) -> request book ~start ~p ~q) reqs
  in
  let book reqs = admit (Reservation_book.create ~m:128 ~alpha:0.5) Reservation_book.request reqs in
  let oracle reqs =
    admit
      (Resa_oracles.Reservation_book.create ~m:128 ~alpha:0.5)
      Resa_oracles.Reservation_book.request reqs
  in
  let oracle_max = if !small then 1000 else 4000 in
  let t =
    Resa_stats.Table.create ~headers:[ "workload"; "requests"; "granted"; "book"; "oracle"; "speedup" ]
  in
  List.iter
    (fun r ->
      let reqs = requests r in
      let granted = Array.fold_left (fun k x -> if Result.is_ok x then k + 1 else k) 0 (book reqs) in
      let b = median_s (fun () -> ignore (book reqs)) in
      let oracle_cell, speedup_cell =
        if r > oracle_max then ("(skipped)", "-")
        else begin
          if oracle reqs <> book reqs then
            failwith (Printf.sprintf "admission: book differs from its oracle at %d requests" r);
          let o = median_s (fun () -> ignore (oracle reqs)) in
          (pretty o, Printf.sprintf "%.0fx" (o /. b))
        end
      in
      Resa_stats.Table.add_row t
        [ "book"; string_of_int r; string_of_int granted; pretty b; oracle_cell; speedup_cell ])
    (if !small then [ 1000; 4000 ] else [ 1000; 4000; 16_000 ]);
  let n = if !small then 1000 else 20_000 in
  let generate () =
    Random_inst.alpha_restricted (Prng.create ~seed:engine_seed) ~m:16 ~n ~alpha:0.5 ~pmax:20 ()
  in
  let g = median_s (fun () -> ignore (generate ())) in
  Resa_stats.Table.add_row t
    [
      Printf.sprintf "scaling instance n=%d" n;
      string_of_int (n / 4);
      string_of_int (Array.length (Instance.reservations (generate ())));
      pretty g;
      "-";
      "-";
    ];
  print_string (Resa_stats.Table.render t)

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
    List.init n (fun i ->
        let job = Instance.job inst i in
        Resa_sim.Simulator.{ job; submit = arr.(i); estimate = Job.p job })
  in
  (subs, Array.to_list (Instance.reservations inst))

(* Whole-simulation wall clock under all four online policies, timeline-
   native engine vs the retained Profile-snapshot reference policies on the
   same seed. The reference pays one forward-profile export per decision;
   that snapshot walks every not-yet-reached reservation edge, so the
   reference engine is effectively quadratic in n and is capped per policy
   (EASY is allowed the 50k column — that speedup is the headline number —
   the rest stop at 10k). Above the cap only the native column is
   measured; the EASY row at 200k is native-only by construction. Where
   both run, their records and makespans must agree: the bench fails on
   any difference. *)
let sim_scaling () =
  Printf.printf
    "\n=== PERF: simulator scaling (one full replay, m=128, n/20 reservations) ===\n";
  let time f x =
    let t0 = Resa_obs.Prof.now_ns () in
    let r = f x in
    (r, float_of_int (Resa_obs.Prof.now_ns () - t0) /. 1e9)
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
          (* The records, in start order, and the run's makespan. *)
          let run policy =
            let records = ref [] in
            let stats =
              Resa_sim.Simulator.run_stream
                ~on_record:(fun r -> records := r :: !records)
                ~policy ~m:128 ~reservations
                (Seq.to_dispenser (List.to_seq subs))
            in
            (!records, stats.makespan)
          in
          let fast, fast_s = time run native in
          let speedup =
            if n > ref_cap then None
            else begin
              let slow, ref_s = time run reference in
              if slow <> fast then
                failwith (Printf.sprintf "simulator scaling: %s differs at n=%d" name n);
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
