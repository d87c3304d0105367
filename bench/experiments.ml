(* The paper's figures and the supplementary tables, regenerated.
   Each experiment prints the series a plotting tool would consume;
   EXPERIMENTS.md records the paper-vs-measured comparison.

   Every replicated measurement fans out over the Resa_par domain pool
   (RESA_DOMAINS / --jobs): replicates are either seeded independently
   (fresh Prng per replicate, as before) or pre-split from one generator
   via Resa_par.parallel_replicates, and rows are rendered in input
   order — so the printed tables are byte-identical at any domain
   count. *)

open Resa_core
open Resa_algos
open Resa_gen
open Resa_analysis
open Resa_exact
open Resa_stats

let section title =
  Printf.printf "\n=== %s ===\n" title

(* When RESA_CSV_DIR is set, every experiment table is also written there as
   <experiment>.csv for external plotting. *)
let emit name t =
  Table.render t |> print_string;
  match Sys.getenv_opt "RESA_CSV_DIR" with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (name ^ ".csv") in
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Table.to_csv t));
    Printf.printf "[csv written to %s]\n" path

(* ------------------------------------------------------------------ *)
(* FIG1 / Theorem 1: the 3-PARTITION reduction makes any non-optimal
   schedule arbitrarily bad.                                           *)
(* ------------------------------------------------------------------ *)

(* A generated trace read the way an archive file is: rendered as SWF text
   and pulled through the one reader. *)
let read_swf ~m entries =
  List.of_seq (Seq.of_dispenser (Resa_swf.Swf_stream.of_string ~m (Resa_swf.Swf.to_string entries)))

let witness_schedule tp inst =
  (* Schedule group l inside window l of the reduction instance. *)
  match Threepartition.solve tp with
  | None -> None
  | Some groups ->
    let b = tp.Threepartition.b in
    let n = Array.length tp.Threepartition.xs in
    let starts = Array.make n 0 in
    let offset = Array.init (Threepartition.k tp) (fun l -> l * (b + 1)) in
    for i = 0 to n - 1 do
      let g = groups.(i) in
      starts.(i) <- offset.(g);
      offset.(g) <- offset.(g) + tp.Threepartition.xs.(i)
    done;
    let s = Schedule.make starts in
    if Schedule.is_feasible inst s then Some s else None

let fig1 () =
  section "FIG1 (Theorem 1): scheduling with unrestricted reservations is inapproximable";
  Printf.printf
    "3-PARTITION reduction on one machine: YES instances have C*=k(B+1)-1, but a list\n\
     schedule that misses the optimum is pushed past the final reservation of length\n\
     rho*k*(B+1)+1, so its ratio grows linearly with rho (unbounded).\n\n";
  let t = Table.create ~headers:[ "k"; "B"; "rho"; "C*"; "LSRC(shuffled)"; "ratio" ] in
  let rng = Prng.create ~seed:2007 in
  (* The reduction instances share one sequential generator stream (the
     rows are cheap); only the shuffled-order probes of each row fan
     out. *)
  List.iter
    (fun (k, rho) ->
      let b = 12 in
      let tp = Threepartition.random_yes rng ~k ~b in
      let inst = Transform.of_three_partition ~xs:tp.Threepartition.xs ~b ~rho in
      let cstar = Transform.three_partition_target ~k ~b in
      (match witness_schedule tp inst with
      | Some w -> assert (Schedule.makespan inst w = cstar)
      | None -> failwith "FIG1: planted YES instance has no witness");
      (* The exact single-machine DP certifies the optimum up to k = 6. *)
      if 3 * k <= Resa_exact.Single_machine.max_jobs then
        assert (Resa_exact.Single_machine.optimal_makespan inst = cstar);
      (* A list schedule over a few shuffled orders: take the worst. *)
      let worst =
        Resa_par.parallel_for_reduce ~lo:1 ~hi:6 ~init:0
          ~f:(fun seed ->
            Schedule.makespan inst (Lsrc.run ~priority:(Priority.Random seed) inst))
          ~combine:max ()
      in
      Table.add_row t
        [
          string_of_int k; string_of_int b; string_of_int rho; string_of_int cstar;
          string_of_int worst;
          Printf.sprintf "%.2f" (float_of_int worst /. float_of_int cstar);
        ])
    [ (2, 1); (2, 2); (2, 4); (3, 1); (3, 2); (3, 4); (4, 2); (4, 8); (5, 4); (6, 4) ];
  emit "fig1" t;
  Printf.printf "Paper: ratio exceeds any fixed rho => no approximation algorithm (Thm 1).\n"

(* ------------------------------------------------------------------ *)
(* FIG2 / Proposition 1: non-increasing reservations.                  *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "FIG2 (Proposition 1): non-increasing reservations keep LSRC within 2 - 1/m(C*)";
  let t =
    Table.create
      ~headers:[ "seed"; "m"; "C*"; "m(C*)"; "LSRC"; "ratio"; "bound"; "I''-preserved" ]
  in
  let replicate seed =
    let rng = Prng.create ~seed in
    let inst = Random_inst.non_increasing rng ~m:8 ~n:6 ~pmax:8 ~levels:3 in
    let r = Bnb.solve ~node_limit:2_000_000 inst in
    if not r.optimal then None
    else begin
      let lsrc = Schedule.makespan inst (Lsrc.run inst) in
      let m_at = Profile.value_at (Instance.availability inst) r.makespan in
      let bound = Ratio_bounds.prop1_bound ~m_at_opt:m_at in
      let ratio = float_of_int lsrc /. float_of_int r.makespan in
      let rigid, _ = Transform.to_rigid inst in
      let ok =
        Schedule.makespan rigid (Lsrc.run rigid)
        = max (Instance.horizon inst) lsrc
      in
      Some
        ( ratio /. bound,
          ok,
          [
            string_of_int seed; string_of_int (Instance.m inst); string_of_int r.makespan;
            string_of_int m_at; string_of_int lsrc;
            Printf.sprintf "%.3f" ratio; Printf.sprintf "%.3f" bound;
            (if ok then "yes" else "NO");
          ] )
    end
  in
  let results = Resa_par.parallel_map replicate (Array.init 12 (fun i -> i + 1)) in
  let worst = ref 0.0 in
  let preserved = ref 0 and total = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some (ratio_over_bound, ok, row) ->
        incr total;
        worst := Float.max !worst ratio_over_bound;
        if ok then incr preserved;
        Table.add_row t row)
    results;
  emit "fig2" t;
  Printf.printf
    "Worst ratio/bound = %.3f (must stay <= 1). Transformation I->I'' preserved LSRC on %d/%d instances.\n"
    !worst !preserved !total

(* ------------------------------------------------------------------ *)
(* FIG3 / Proposition 2: the adversarial family and its exact ratio.   *)
(* ------------------------------------------------------------------ *)

let fig3_table () =
  let t =
    Table.create
      ~headers:[ "k"; "alpha"; "m"; "C*"; "LSRC"; "measured"; "predicted"; "2/a (ub)" ]
  in
  let rows =
    Resa_par.parallel_map
      (fun k ->
        let inst, opt = Adversarial.prop2 ~k in
        let alpha = Adversarial.prop2_alpha ~k in
        let lsrc = Schedule.makespan inst (Lsrc.run inst) in
        assert (lsrc = Adversarial.prop2_expected_lsrc ~k);
        [
          string_of_int k;
          Printf.sprintf "%.3f" alpha;
          string_of_int (Instance.m inst);
          string_of_int opt; string_of_int lsrc;
          Printf.sprintf "%.4f" (float_of_int lsrc /. float_of_int opt);
          Printf.sprintf "%.4f" (Ratio_bounds.prop2_value ~alpha);
          Printf.sprintf "%.4f" (Ratio_bounds.upper_bound ~alpha);
        ])
      [| 3; 4; 5; 6; 7; 8; 9; 10 |]
  in
  Array.iter (Table.add_row t) rows;
  t

let fig3 () =
  section "FIG3 (Proposition 2): adversarial family, ratio = 2/a - 1 + a/2 (a = 2/k)";
  Printf.printf "The k=6 row is exactly the instance drawn in Figure 3 (m=180, C*=6, LSRC=31).\n\n";
  emit "fig3" (fig3_table ())

(* ------------------------------------------------------------------ *)
(* FIG4: bounds B1, B2 and the 2/a upper bound over an alpha grid,
   with the best ratio we can actually measure.                        *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "FIG4: upper and lower bounds for LSRC on a-RESASCHEDULING, as a function of alpha";
  let t =
    Table.create ~headers:[ "alpha"; "2/a (upper)"; "B1"; "B2"; "measured-worst" ]
  in
  let alphas = List.init 19 (fun i -> 0.05 *. float_of_int (i + 1) +. 0.0) in
  let row alpha =
    (* Best measured ratio at this alpha: the widest Prop 2 member that is
       still alpha-restricted (k = floor(2/alpha); its instance has
       U = (1-2/k)m <= (1-alpha)m and q <= m/k <= alpha*m for k >= 1/alpha),
       backed up by a random search against the certified lower bound. *)
    let measured =
      let adversarial =
        let k = int_of_float (2.0 /. alpha +. 1e-9) in
        if k >= 3 then begin
          let inst, opt = Adversarial.prop2 ~k in
          if Instance.is_alpha_restricted inst ~alpha then
            Some (float_of_int (Schedule.makespan inst (Lsrc.run inst)) /. float_of_int opt)
          else None
        end
        else None
      in
      let random_search =
        (* Random instances, each probed with the worst-order local search
           (Anomaly.worst_order) rather than a single FIFO run. *)
        let worst = ref 1.0 in
        for seed = 1 to 8 do
          let rng = Prng.create ~seed:(seed + (int_of_float (alpha *. 1000.) * 131)) in
          let m = 24 in
          if int_of_float (alpha *. float_of_int m) >= 1 then begin
            let inst = Random_inst.alpha_restricted rng ~m ~n:10 ~alpha ~pmax:8 () in
            let lb = Lower_bounds.best inst in
            if lb > 0 then begin
              let _, bad = Anomaly.worst_order ~restarts:3 ~iterations:40 rng inst in
              worst := Float.max !worst (float_of_int bad /. float_of_int lb)
            end
          end
        done;
        !worst
      in
      Float.max random_search (Option.value adversarial ~default:1.0)
    in
    [
      Printf.sprintf "%.2f" alpha;
      Printf.sprintf "%.3f" (Ratio_bounds.upper_bound ~alpha);
      Printf.sprintf "%.3f" (Ratio_bounds.b1 ~alpha);
      Printf.sprintf "%.3f" (Ratio_bounds.b2 ~alpha);
      Printf.sprintf "%.3f" measured;
    ]
  in
  List.iter (Table.add_row t) (Resa_par.parallel_map_list row alphas);
  emit "fig4" t;
  Printf.printf
    "measured-worst uses the Prop 2 instance when 2/a is an integer (exact), otherwise a\n\
     random search against the certified lower bound (an underestimate). B1 <= measured\n\
     cannot be expected off the 2/k grid; the plotted curves match Figure 4.\n"

(* ------------------------------------------------------------------ *)
(* T1 / Theorem 2: the Graham bound without reservations.              *)
(* ------------------------------------------------------------------ *)

let t1 () =
  section "T1 (Theorem 2): LSRC <= (2 - 1/m) OPT without reservations";
  let t = Table.create ~headers:[ "family"; "m"; "OPT"; "LSRC"; "ratio"; "2-1/m"; "lemma1" ] in
  let rows =
    Resa_par.parallel_map
      (fun m ->
        let inst, opt = Adversarial.graham_tight ~m in
        let s = Lsrc.run inst in
        let lsrc = Schedule.makespan inst s in
        [
          "tight"; string_of_int m; string_of_int opt; string_of_int lsrc;
          Printf.sprintf "%.4f" (float_of_int lsrc /. float_of_int opt);
          Printf.sprintf "%.4f" (Ratio_bounds.graham ~m);
          (if Graham.lemma1_holds inst s then "holds" else "VIOLATED");
        ])
      [| 2; 3; 4; 6; 8; 12 |]
  in
  Array.iter (Table.add_row t) rows;
  (* Random packed instances with known optimum; each replicate draws
     from a generator pre-split off the campaign seed. *)
  let packed =
    Resa_par.parallel_replicates (Prng.create ~seed:4242) ~n:40 (fun rng _ ->
        let p = Packed.generate rng ~m:8 ~c:24 ~target_jobs:20 () in
        let s = Lsrc.run p.instance in
        let ratio =
          float_of_int (Schedule.makespan p.instance s) /. float_of_int p.optimal
        in
        (ratio, Graham.lemma1_holds p.instance s))
  in
  let worst = ref 1.0 and lemma_ok = ref true in
  Array.iter
    (fun (ratio, ok) ->
      worst := Float.max !worst ratio;
      if not ok then lemma_ok := false)
    packed;
  Table.add_row t
    [
      "packed(rand)"; "8"; "24"; "-"; Printf.sprintf "max %.4f" !worst;
      Printf.sprintf "%.4f" (Ratio_bounds.graham ~m:8);
      (if !lemma_ok then "holds" else "VIOLATED");
    ];
  emit "t1" t;
  Printf.printf "The tight family attains the bound exactly; random packings stay below it.\n"

(* ------------------------------------------------------------------ *)
(* T2 / Proposition 3: random a-restricted workloads, priority rules.  *)
(* ------------------------------------------------------------------ *)

let t2 () =
  section "T2 (Proposition 3): random a-RESASCHEDULING, ratio vs lower bound per priority rule";
  let t =
    Table.create
      ~headers:
        [ "alpha"; "2/a"; "FIFO max"; "FIFO avg"; "LPT max"; "LPT avg"; "SPT max"; "CONS max" ]
  in
  List.iter
    (fun alpha ->
      let replicate seed =
        let rng = Prng.create ~seed:(seed * 7919) in
        let inst = Random_inst.alpha_restricted rng ~m:32 ~n:25 ~alpha ~pmax:10 () in
        let lb = Lower_bounds.best inst in
        if lb <= 0 then None
        else begin
          let ratio s = float_of_int (Schedule.makespan inst s) /. float_of_int lb in
          Some
            ( ratio (Lsrc.run ~priority:Priority.Fifo inst),
              ratio (Lsrc.run ~priority:Priority.Lpt inst),
              ratio (Lsrc.run ~priority:Priority.Spt inst),
              ratio (Backfill.conservative inst) )
        end
      in
      let results = Resa_par.parallel_map replicate (Array.init 30 (fun i -> i + 1)) in
      let fifo = ref [] and lpt = ref [] and spt = ref [] and cons = ref [] in
      Array.iter
        (function
          | None -> ()
          | Some (f, l, s, c) ->
            fifo := f :: !fifo;
            lpt := l :: !lpt;
            spt := s :: !spt;
            cons := c :: !cons)
        results;
      let mx xs = List.fold_left Float.max 1.0 xs in
      Table.add_row t
        [
          Printf.sprintf "%.2f" alpha;
          Printf.sprintf "%.2f" (Ratio_bounds.upper_bound ~alpha);
          Printf.sprintf "%.3f" (mx !fifo);
          Printf.sprintf "%.3f" (Stats.mean !fifo);
          Printf.sprintf "%.3f" (mx !lpt);
          Printf.sprintf "%.3f" (Stats.mean !lpt);
          Printf.sprintf "%.3f" (mx !spt);
          Printf.sprintf "%.3f" (mx !cons);
        ])
    [ 0.25; 0.5; 0.75; 1.0 ];
  emit "t2" t;
  Printf.printf
    "All ratios sit far below 2/a; LPT (the conclusion's suggested priority) is on par\n\
     with or better than FIFO on average.\n"

(* ------------------------------------------------------------------ *)
(* T3: online simulation with an admission-capped reservation book.    *)
(* ------------------------------------------------------------------ *)

let t3 () =
  section "T3: online policies on a synthetic SWF trace with admitted reservations (a=0.5)";
  let m = 64 and n = 250 in
  let rng = Prng.create ~seed:777 in
  let arrivals = read_swf ~m (Resa_swf.Swf.generate rng ~m ~n ~max_runtime:200 ~mean_gap:6.0) in
  (* Admit periodic demo reservations under the alpha cap. *)
  let book = Resa_sim.Reservation_book.create ~m ~alpha:0.5 () in
  let granted = ref 0 and rejected = ref 0 in
  for i = 0 to 19 do
    match
      Resa_sim.Reservation_book.request book ~start:(100 + (i * 137))
        ~p:(40 + (i mod 3 * 25))
        ~q:(16 + (i mod 4 * 12))
    with
    | Ok _ -> incr granted
    | Error _ -> incr rejected
  done;
  let reservations = Resa_sim.Reservation_book.accepted book in
  Printf.printf "Reservation book: %d granted, %d rejected by the alpha cap.\n\n" !granted !rejected;
  let subs =
    List.map
      (fun (a : Resa_swf.Swf_stream.arrival) ->
        Resa_sim.Simulator.{ job = a.job; submit = a.submit })
      arrivals
  in
  print_endline Resa_sim.Metrics.header;
  (* One simulation per policy, in parallel; each policy value carries its
     own planning state and is used by exactly one task. *)
  let rows =
    Resa_par.parallel_map_list
      (fun policy ->
        let trace = Resa_sim.Simulator.run ~policy ~m ~reservations subs in
        let s = Resa_sim.Metrics.summarize trace in
        Resa_sim.Metrics.row ~name:policy.Resa_sim.Policy.name s)
      Resa_sim.Policy.all
  in
  List.iter print_endline rows;
  Printf.printf
    "\nExpected shape: FCFS worst on wait/utilization; backfilling recovers most of it;\n\
     the aggressive list policy (LSRC) packs tightest, as the paper's theory predicts.\n"

(* ------------------------------------------------------------------ *)
(* Ablation: what the alpha cap buys (DESIGN.md design-choice bench).  *)
(* ------------------------------------------------------------------ *)

let ablation_alpha_cap () =
  section "ABLATION: the alpha admission cap is what makes LSRC approximable";
  Printf.printf
    "A perfectly packed workload (OPT = 10) plus one 'wall' reservation starting exactly\n\
     at the optimum (the Theorem 1 trap). A capped system (a = 0.5: reject q > (1-a)m)\n\
     refuses wide walls, so LSRC keeps its 2/a guarantee; an uncapped system admits\n\
     them, and a single unlucky list order lands behind the wall.\n\n";
  let t =
    Table.create ~headers:[ "wall-q"; "admission"; "wall?"; "worst LSRC"; "ratio vs OPT" ]
  in
  let m = 16 and c = 10 in
  let cap = 8 (* (1 - 0.5) * m *) in
  let combos =
    List.concat_map (fun wall_q -> List.map (fun capped -> (wall_q, capped)) [ true; false ])
      [ 6; 12; 16 ]
  in
  let row (wall_q, capped) =
    let admitted = (not capped) || wall_q <= cap in
    let reservations =
      if admitted then [ (c, 100, wall_q) ] (* start, p, q *) else []
    in
    let rng = Prng.create ~seed:4 in
    let packed = Packed.generate rng ~m ~c ~target_jobs:18 () in
    (* Halve any job wider than alpha*m so the *job* side of the
       alpha-restriction holds too (the witness packing survives). *)
    let rec narrow (p, q) = if q <= m / 2 then [ (p, q) ] else narrow (p, q / 2) @ [ (p, q - (q / 2)) ] in
    let jobs =
      Array.to_list (Instance.jobs packed.instance)
      |> List.concat_map (fun j -> narrow (Job.p j, Job.q j))
    in
    let inst = Instance.of_sizes ~m ~reservations jobs in
    let worst = ref 0 in
    for seed = 1 to 8 do
      let s = Lsrc.run ~priority:(Priority.Random seed) inst in
      worst := max !worst (Schedule.makespan inst s)
    done;
    [
      string_of_int wall_q;
      (if capped then "capped" else "uncapped");
      (if admitted then "admitted" else "rejected");
      string_of_int !worst;
      Printf.sprintf "%.2f" (float_of_int !worst /. float_of_int c);
    ]
  in
  List.iter (Table.add_row t) (Resa_par.parallel_map_list row combos);
  emit "ablation" t;
  Printf.printf
    "With the full-width wall admitted, any imperfect order pays the whole wall length;\n\
     the cap bounds the damage exactly as section 4.2 intends.\n"

(* ------------------------------------------------------------------ *)
(* T4: sensitivity of the online policies to walltime overestimation.  *)
(* ------------------------------------------------------------------ *)

let t4 () =
  section "T4: walltime overestimation (requested vs actual runtimes), m=32";
  Printf.printf
    "Users request more walltime than they use; planners reserve the request and the\n\
     unused tail is released at completion. Factor 1.0 = perfect estimates.\n\n";
  let t =
    Table.create
      ~headers:[ "est-factor"; "policy"; "Cmax"; "mean_wait"; "bnd_slowdn"; "util" ]
  in
  let n_policies = List.length Resa_sim.Policy.all in
  (* Flattened (factor, policy) grid. The trace of a factor is regenerated
     inside each task from its fixed seed — cheap, and it keeps every task
     independent of the others. *)
  let combos =
    List.concat_map
      (fun factor -> List.init n_policies (fun i -> (factor, i)))
      [ 1.0; 2.0; 5.0 ]
  in
  let row (factor, policy_idx) =
    let rng = Prng.create ~seed:31337 in
    let arrivals =
      read_swf ~m:32
        (Resa_swf.Swf.generate ~overestimate:factor rng ~m:32 ~n:150 ~max_runtime:100
           ~mean_gap:6.0)
    in
    let subs =
      List.map
        (fun (a : Resa_swf.Swf_stream.arrival) ->
          Resa_sim.Simulator.{ job = a.job; submit = a.submit })
        arrivals
    in
    let estimates =
      Array.of_list (List.map (fun (a : Resa_swf.Swf_stream.arrival) -> a.estimate) arrivals)
    in
    let policy = List.nth Resa_sim.Policy.all policy_idx in
    let trace = Resa_sim.Simulator.run ~policy ~m:32 ~estimates subs in
    let s = Resa_sim.Metrics.summarize trace in
    [
      Printf.sprintf "%.1f" factor;
      policy.Resa_sim.Policy.name;
      string_of_int s.makespan;
      Printf.sprintf "%.1f" s.mean_wait;
      Printf.sprintf "%.2f" s.mean_bounded_slowdown;
      Printf.sprintf "%.3f" s.utilization;
    ]
  in
  List.iter (Table.add_row t) (Resa_par.parallel_map_list row combos);
  emit "t4" t;
  Printf.printf
    "The classic effect: FCFS is estimate-insensitive, planners (CONS/EASY) degrade\n\
     with inflated requests because backfill windows look too small, while the\n\
     aggressive list policy recovers capacity the moment the tails are released.\n"

(* ------------------------------------------------------------------ *)
(* T5: the price of non-preemption (related-work model, paper §1.3).   *)
(* ------------------------------------------------------------------ *)

let t5 () =
  section "T5: price of non-preemption — sequential tasks under reservations (§1.3 models)";
  Printf.printf
    "Earlier availability-constraint work allows preemption; the paper does not. For\n\
     sequential tasks (q=1) the preemptive optimum is computed exactly (max-flow over\n\
     availability segments), giving the gap the non-preemptive model pays.\n\n";
  let t =
    Table.create
      ~headers:[ "seed"; "m"; "n"; "preempt-OPT"; "non-preempt-OPT"; "LSRC"; "np/p"; "lsrc/p" ]
  in
  let replicate seed =
    let rng = Prng.create ~seed:(seed * 613) in
    let m = Prng.int_incl rng ~lo:2 ~hi:4 in
    let n = Prng.int_incl rng ~lo:5 ~hi:8 in
    let jobs =
      List.init n (fun i -> Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:9) ~q:1)
    in
    let reservations =
      [
        Reservation.make ~id:0 ~start:(Prng.int_incl rng ~lo:2 ~hi:6)
          ~p:(Prng.int_incl rng ~lo:2 ~hi:6) ~q:(m - 1);
      ]
    in
    let inst = Instance.create_exn ~m ~jobs ~reservations in
    let pre = (Preemptive.optimal inst).makespan in
    let np = Bnb.solve ~node_limit:2_000_000 inst in
    if not np.optimal then None
    else begin
      let lsrc = Schedule.makespan inst (Lsrc.run inst) in
      Some
        ( float_of_int np.makespan /. float_of_int pre,
          [
            string_of_int seed; string_of_int m; string_of_int n; string_of_int pre;
            string_of_int np.makespan; string_of_int lsrc;
            Printf.sprintf "%.3f" (float_of_int np.makespan /. float_of_int pre);
            Printf.sprintf "%.3f" (float_of_int lsrc /. float_of_int pre);
          ] )
    end
  in
  let results = Resa_par.parallel_map replicate (Array.init 12 (fun i -> i + 1)) in
  let gaps = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some (gap, row) ->
        gaps := gap :: !gaps;
        Table.add_row t row)
    results;
  emit "t5" t;
  Printf.printf
    "Mean non-preemptive/preemptive gap: %.3f — the paper's model pays a real but\n\
     modest price for forbidding preemption, while keeping schedules implementable\n\
     on clusters without checkpointing.\n"
    (Resa_stats.Stats.mean !gaps)

let run_all () =
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  t1 ();
  t2 ();
  t3 ();
  t4 ();
  t5 ();
  ablation_alpha_cap ()
