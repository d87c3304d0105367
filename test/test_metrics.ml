(* Telemetry layer: the typed metrics registry (bucket goldens, snapshot
   determinism, exposition, disabled-path contracts), heartbeat snapshots
   (sampler cadence, JSONL round-trip, wall segregation) and the benchdiff
   regression gate over benchmark results. *)

open Resa_sim
module M = Resa_obs.Metrics
module B = Resa_obs.Benchdiff
module H = Heartbeat
module Swf_stream = Resa_swf.Swf_stream

open Tutil

(* --- registry ------------------------------------------------------------ *)

(* Instruments read through the registry's snapshot. *)
let gauge_value name =
  match List.assoc_opt name (M.snapshot ()) with
  | Some (M.Gauge_v v) -> v
  | _ -> Alcotest.fail (name ^ " not a gauge in snapshot")

let hist name =
  match List.assoc_opt name (M.snapshot ()) with
  | Some (M.Histogram_v h) -> h
  | _ -> Alcotest.fail (name ^ " not a histogram in snapshot")

let test_counter_gauge_basics () =
  with_metrics (fun () ->
      let c = M.counter "test.c" in
      let g = M.gauge "test.g" in
      M.incr c;
      M.add c 4;
      M.set g 7;
      M.set g 3;
      Alcotest.(check int) "counter accumulates" 5 (M.value c);
      Alcotest.(check int) "gauge last-write-wins" 3 (gauge_value "test.g");
      M.reset ();
      Alcotest.(check int) "reset zeroes" 0 (M.value c))

let test_disabled_path_noop () =
  without_metrics (fun () ->
      let c = M.counter "test.off.c" in
      let h = M.histogram "test.off.h" in
      M.incr c;
      M.add c 10;
      M.observe h 42;
      Alcotest.(check int) "disabled counter untouched" 0 (M.value c);
      Alcotest.(check int) "disabled histogram untouched" 0 (hist "test.off.h").M.count)

let test_kind_mismatch_raises () =
  with_metrics (fun () ->
      let _ = M.counter "test.kind" in
      Alcotest.check_raises "re-register as gauge"
        (Invalid_argument "Metrics: \"test.kind\" already registered with another kind")
        (fun () -> ignore (M.gauge "test.kind")))

let hist_buckets name = (hist name).M.buckets

let test_histogram_boundaries () =
  (* Golden bucket placement at the power-of-two boundaries: bucket 0 is
     v <= 0, bucket i >= 1 is [2^(i-1), 2^i - 1], upper bound le = 2^i-1. *)
  with_metrics (fun () ->
      let h = M.histogram "test.hist" in
      M.observe h 1;
      Alcotest.(check (list (pair int int))) "1 -> le 1" [ (1, 1) ] (hist_buckets "test.hist");
      M.observe h 2;
      M.observe h 3;
      Alcotest.(check (list (pair int int)))
        "2 and 3 -> le 3"
        [ (1, 1); (3, 3) ]
        (hist_buckets "test.hist");
      M.observe h 4;
      Alcotest.(check (list (pair int int)))
        "4 -> le 7"
        [ (1, 1); (3, 3); (7, 4) ]
        (hist_buckets "test.hist");
      M.observe h 0;
      M.observe h (-5);
      Alcotest.(check (list (pair int int)))
        "non-positive -> le 0"
        [ (0, 2); (1, 3); (3, 5); (7, 6) ]
        (hist_buckets "test.hist");
      Alcotest.(check int) "count" 6 (hist "test.hist").M.count;
      Alcotest.(check int) "sum" 5 (hist "test.hist").M.sum;
      let h2 = M.histogram "test.hist2" in
      M.observe h2 1024;
      Alcotest.(check (list (pair int int)))
        "2^10 opens the le 2^11-1 bucket" [ (2047, 1) ] (hist_buckets "test.hist2");
      M.observe h2 1023;
      Alcotest.(check (list (pair int int)))
        "2^10-1 closes under le 2^10-1"
        [ (1023, 1); (2047, 2) ]
        (hist_buckets "test.hist2");
      M.observe h2 max_int;
      Alcotest.(check int) "max_int lands in the last bucket" 3 (hist "test.hist2").M.count)

let test_expose_format () =
  with_metrics (fun () ->
      M.incr (M.counter "test.expose.jobs");
      M.observe (M.histogram "wall.expose_ns") 3;
      let text = M.expose () in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "exposition has %S" sub) true
            (contains ~sub text))
        [
          "# TYPE resa_test_expose_jobs counter";
          "resa_test_expose_jobs 1";
          "# TYPE resa_wall_expose_ns histogram";
          "resa_wall_expose_ns_bucket{le=\"3\"} 1";
          "resa_wall_expose_ns_bucket{le=\"+Inf\"} 1";
          "resa_wall_expose_ns_sum 3";
          "resa_wall_expose_ns_count 1";
        ])

let test_wall_prefix () =
  Alcotest.(check bool) "wall. is wall" true (M.is_wall "wall.decide_ns");
  Alcotest.(check bool) "sim. is not" false (M.is_wall "sim.wait");
  Alcotest.(check bool) "wallpaper is not" false (M.is_wall "wallpaper")

(* --- simulator integration ----------------------------------------------- *)

let arrivals ?(seed = 11) ?(n = 400) ?(mean_gap = 3.0) () =
  let rng = Resa_core.Prng.create ~seed in
  let src = Swf_stream.synthetic ~overestimate:2.0 rng ~m:16 ~n ~max_runtime:60 ~mean_gap in
  let acc = ref [] in
  let rec go () = match src () with None -> () | Some a -> acc := a :: !acc; go () in
  go ();
  List.rev !acc

let feed xs =
  let rest = ref xs in
  fun () ->
    match !rest with
    | [] -> None
    | (a : Swf_stream.arrival) :: tl ->
      rest := tl;
      Some Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate }

let run_with_heartbeats ?(n = 400) ?(heartbeat_every = 64) policy =
  let rows = ref [] in
  let ms = Metrics.Stream.create ~m:16 ~reservations:[] () in
  let stats =
    Simulator.run_stream ~gc_every:50 ~heartbeat_every
      ~on_heartbeat:(fun hb -> rows := H.make ~run:"t" ~stream:ms ~registry:true hb :: !rows)
      ~on_record:(Metrics.Stream.observe ms)
      ~policy ~m:16
      (feed (arrivals ~n ()))
  in
  (stats, List.rev !rows)

let deterministic_snapshot () =
  List.filter (fun (name, _) -> not (M.is_wall name)) (M.snapshot ())

let test_snapshot_deterministic () =
  (* Two identical replays produce identical deterministic registry
     sections — and the suite runs at RESA_DOMAINS 1 and 4 in CI, pinning
     the snapshot across pool sizes too. *)
  with_metrics (fun () ->
      let once () =
        M.reset ();
        let stats, _ = run_with_heartbeats Policy.easy in
        (stats, deterministic_snapshot ())
      in
      let stats1, snap1 = once () in
      let stats2, snap2 = once () in
      Alcotest.(check bool) "same stats" true (stats1 = stats2);
      Alcotest.(check bool) "same deterministic snapshot" true (snap1 = snap2);
      let counter name =
        match List.assoc_opt name snap1 with
        | Some (M.Counter_v v) -> v
        | _ -> Alcotest.fail (name ^ " missing")
      in
      Alcotest.(check int) "admissions counted" 400 (counter "sim.jobs_admitted");
      Alcotest.(check int) "completions counted" 400 (counter "sim.jobs_completed");
      (* Engine counts share the registry with the simulator's own. *)
      Alcotest.(check int) "every checkpoint resolved" (counter "timeline.checkpoint")
        (counter "timeline.commit" + counter "timeline.rollback");
      Alcotest.(check int) "one EASY decide per engine decision" (counter "sim.decisions")
        (counter "policy.decide.EASY");
      (match List.assoc_opt "sim.wait" snap1 with
      | Some (M.Histogram_v h) -> Alcotest.(check int) "every start observed" 400 h.M.count
      | _ -> Alcotest.fail "sim.wait missing");
      Alcotest.(check bool) "decide latency is wall-prefixed" true
        (List.mem_assoc "wall.decide_ns" (M.snapshot ())
        && not (List.mem_assoc "wall.decide_ns" snap1)))

let test_auto_gc_counted () =
  (* No gc cadence: only the engine's own span/node trigger rebases the
     timeline, and each rebase must report what it reclaimed. *)
  with_metrics (fun () ->
      let stats =
        Simulator.run_stream ~policy:Policy.fcfs ~m:16
          (feed (arrivals ~n:2000 ~mean_gap:20.0 ()))
      in
      Alcotest.(check bool) "span passes the 16384 auto-gc bound" true
        (stats.Simulator.makespan > 16384);
      Alcotest.(check bool) "auto gc ran" true (Tutil.counter "sim.gc_runs" > 0);
      Alcotest.(check bool) "reclaimed nodes counted" true
        (Tutil.counter "sim.gc_reclaimed_nodes" > 0))

(* Past the Timeline.gc cliff: with 10000 future reservations of
   resv-alpha's shape, a freshly collected timeline keeps ~20k segments,
   above the 16384-segment trigger (and CONS's plan keeps more than its
   1024), so a fixed trigger collects at almost every decision (FCFS:
   11944 collections in 24232 decisions; CONS's two timelines: 35909).
   Raised past the cliff, the segment trigger leaves only the span rule's
   cadence: every run walks the reservation edges up to 100M, and the
   origin may trail the clock by at most 16384, so at most 100M / 16384
   ~ 6104 span collections, plus a few segment-count ones. Collecting
   more often changes no event of the trace. *)
let test_gc_cliff () =
  let arrivals =
    let rng = Resa_core.Prng.create ~seed:4242 in
    let src =
      Swf_stream.synthetic ~overestimate:2.0 rng ~m:64 ~n:2000 ~max_runtime:2000 ~mean_gap:100.0
    in
    let rec go acc = match src () with None -> List.rev acc | Some a -> go (a :: acc) in
    go []
  in
  let n_resv = 10_000 in
  let reservations =
    List.init n_resv (fun i ->
        Resa_core.Reservation.make ~id:i ~start:((10_000 * i) + 5_000) ~p:2_500 ~q:64)
  in
  let budget = (10_000 * n_resv / 16384) + 50 in
  let jsonl events = Tutil.trace_text ~run:"x" (events ()) in
  List.iter
    (fun ((policy : Policy.t), counter) ->
      let streamed, streamed_events = Tutil.recorder () in
      let gc_runs =
        with_metrics (fun () ->
            ignore
              (Simulator.run_stream ~obs:streamed ~policy ~m:128 ~reservations (feed arrivals));
            Tutil.counter counter)
      in
      if gc_runs > budget then
        Alcotest.failf "%s: %s = %d, budget %d" policy.name counter gc_runs budget;
      (* A run that also collects after every completion writes the same
         events. *)
      let eager, eager_events = Tutil.recorder () in
      ignore
        (Simulator.run_stream ~obs:eager ~gc_every:1 ~policy ~m:128 ~reservations (feed arrivals));
      Alcotest.(check bool)
        (policy.name ^ " trace equals the gc_every:1 run's")
        true
        (jsonl streamed_events = jsonl eager_events))
    (* CONS rebuilds its plan timeline on the same rule; [timeline.gc]
       counts both timelines. *)
    [ (Policy.fcfs, "sim.gc_runs"); (Policy.conservative, "timeline.gc") ]

let test_traced_replay_byte_identical_off () =
  (* Collection on or off never changes the deterministic event stream. *)
  let text enabled =
    let doit () =
      let obs, obs_events = Tutil.recorder () in
      ignore (Simulator.run_stream ~obs ~policy:Policy.easy ~m:16 (feed (arrivals ~n:200 ())));
      Tutil.trace_text ~run:"x" (obs_events ())
    in
    if enabled then with_metrics doit else without_metrics doit
  in
  Alcotest.(check bool) "byte-identical" true (text false = text true)

let test_heartbeat_sampler () =
  with_metrics (fun () ->
      let stats, rows = run_with_heartbeats ~heartbeat_every:64 Policy.fcfs in
      Alcotest.(check bool) "several snapshots" true (List.length rows >= 3);
      let seqs = List.map (fun (r : H.row) -> r.H.hb.Simulator.hb_seq) rows in
      Alcotest.(check (list int)) "contiguous seq" (List.init (List.length rows) (fun i -> i + 1)) seqs;
      List.iter
        (fun (r : H.row) ->
          let hb = r.H.hb in
          Alcotest.(check bool) "live = admitted - completed" true
            (hb.Simulator.hb_live = hb.Simulator.hb_admitted - hb.Simulator.hb_completed);
          Alcotest.(check bool) "registry section is deterministic only" true
            (List.for_all (fun (name, _) -> not (M.is_wall name)) r.H.metrics))
        rows;
      let last = List.nth rows (List.length rows - 1) in
      Alcotest.(check int) "closing snapshot drains" stats.Simulator.jobs
        last.H.hb.Simulator.hb_completed;
      Alcotest.(check bool) "closing snapshot not before makespan" true
        (last.H.hb.Simulator.hb_time >= stats.Simulator.makespan);
      (* Deterministic replay -> deterministic heartbeat stream (modulo the
         wall section, absent here). *)
      M.reset ();
      let _, rows2 = run_with_heartbeats ~heartbeat_every:64 Policy.fcfs in
      let jsonl rs = written (fun oc -> List.iter (H.write oc) rs) in
      Alcotest.(check string) "byte-stable rows" (jsonl rows) (jsonl rows2))

let test_heartbeat_roundtrip () =
  let hb =
    Simulator.
      {
        hb_seq = 3;
        hb_time = 1200;
        hb_events = 4096;
        hb_admitted = 2050;
        hb_completed = 2000;
        hb_queued = 30;
        hb_live = 50;
        hb_makespan = 1500;
        hb_nodes = 77;
      }
  in
  let row =
    {
      H.run = Some "EASY";
      hb;
      wait_p50 = 12.5;
      wait_p95 = Float.nan;
      utilization = 0.75;
      metrics = [ ("sim.wait.count", 2000.) ];
      wall =
        Some
          {
            H.elapsed_s = 1.25;
            jobs_per_s = 1600.;
            rss_mb = None;
            wall_metrics = [ ("wall.decide_ns.sum", 9.9e6) ];
          };
    }
  in
  let line = String.trim (written (fun oc -> H.write oc row)) in
  (match H.parse_line line with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "hb fields" true (r.H.hb = hb);
    Alcotest.(check (option string)) "run tag" (Some "EASY") r.H.run;
    Alcotest.(check (float 0.0)) "p50" 12.5 r.H.wait_p50;
    Alcotest.(check bool) "nan through null" true (Float.is_nan r.H.wait_p95);
    Alcotest.(check bool) "metrics" true (r.H.metrics = row.H.metrics);
    (match (r.H.wall, row.H.wall) with
    | Some a, Some b ->
      Alcotest.(check bool) "wall block" true
        (a.H.elapsed_s = b.H.elapsed_s && a.H.jobs_per_s = b.H.jobs_per_s
       && a.H.rss_mb = None && a.H.wall_metrics = b.H.wall_metrics)
    | _ -> Alcotest.fail "wall lost"));
  (* The deterministic view drops exactly the wall member. *)
  let stripped =
    match Resa_obs.Jsonu.of_string line with
    | Ok (Resa_obs.Jsonu.Obj kvs) ->
      Resa_obs.Jsonu.to_string (Resa_obs.Jsonu.Obj (List.filter (fun (k, _) -> k <> "wall") kvs))
    | _ -> Alcotest.fail "row is not a JSON object"
  in
  Alcotest.(check bool) "dropping wall removes wall" true (not (contains ~sub:"wall" stripped));
  match H.parse_line stripped with
  | Ok r -> Alcotest.(check bool) "stripped row parses" true (r.H.wall = None)
  | Error e -> Alcotest.fail e

(* --- benchdiff ----------------------------------------------------------- *)

(* Declared as BENCHMARK.json declares: one bounded metric per direction,
   and a per-layer metric with no bound. *)
let declared =
  Result.get_ok
    (B.declared_of_string
       {|{"end_to_end": [
  {"name": "jobs_per_s.fcfs", "unit": "jobs/s", "better": "higher", "bound": 0.15},
  {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2}],
 "per_layer": [{"name": "policy.share.fcfs", "unit": "", "better": "lower"}]}|})

(* A results file as benchmark/run.py writes it; [metrics] are
   (name, value, q1, q3), the median equal to the value. *)
let results ?(workload = "swf-replay") ?(seed = 4242) ?(trace = 0) ?(failed = 0)
    ?(errors = []) metrics =
  let open Resa_obs.Jsonu in
  let metric (name, v, q1, q3) =
    ( name,
      Obj
        [
          ("value", Num v); ("median", Num v); ("q1", Num q1); ("q3", Num q3);
          ("samples", Num 10.); ("raw", List [ Num v ]); ("unit", Str "u");
        ] )
  in
  to_string
    (Obj
       [
         ("workload", Str workload); ("seed", Num (float_of_int seed));
         ("trace", Num (float_of_int trace)); ("seconds", Num 12.5); ("attempted", Num 40.);
         ("failed", Num (float_of_int failed)); ("errors", List (List.map (fun e -> Str e) errors));
         ("metrics", Obj (List.map metric metrics)); ("digests", Obj []);
         ("time_scales", List [ Num 1.02 ]);
       ])
  |> B.results_of_string |> Result.get_ok

let compare_ok parent change =
  match B.compare declared ~parent ~change with Ok r -> r | Error e -> Alcotest.fail e

let verdict r name = (List.find (fun c -> c.B.name = name) r.B.comparisons).B.verdict

let test_benchdiff_flags_slowdown () =
  let parent = results [ ("jobs_per_s.fcfs", 100., 98., 102.) ] in
  let r = compare_ok parent (results [ ("jobs_per_s.fcfs", 80., 78., 82.) ]) in
  Alcotest.(check int) "20% slowdown flagged" 1 r.B.regressions;
  Alcotest.(check bool) "worse" true (verdict r "jobs_per_s.fcfs" = B.Worse);
  Alcotest.(check bool) "render names the metric" true
    (contains ~sub:"1 regression: jobs_per_s.fcfs" (B.render r));
  let faster = compare_ok parent (results [ ("jobs_per_s.fcfs", 120., 118., 122.) ]) in
  Alcotest.(check bool) "20% speed-up is better" true (verdict faster "jobs_per_s.fcfs" = B.Better);
  Alcotest.(check int) "identical inputs pass" 0 (compare_ok parent parent).B.regressions

let test_benchdiff_special_rows () =
  (* Peak RSS gates by its bound; a parent whose q1-q3 spread is wider
     than the bound cannot tell the change, and a metric with no declared
     bound is never judged. *)
  let r =
    compare_ok
      (results [ ("peak_rss_mb", 10., 9.9, 10.1); ("policy.share.fcfs", 0.2, 0.2, 0.2) ])
      (results [ ("peak_rss_mb", 13., 12.9, 13.1); ("policy.share.fcfs", 0.9, 0.9, 0.9) ])
  in
  Alcotest.(check bool) "rss 30% up is worse" true (verdict r "peak_rss_mb" = B.Worse);
  Alcotest.(check bool) "per-layer metric unbounded" true (verdict r "policy.share.fcfs" = B.Unbounded);
  Alcotest.(check int) "only rss gates" 1 r.B.regressions;
  let noisy =
    compare_ok (results [ ("jobs_per_s.fcfs", 100., 80., 120.) ]) (results [ ("jobs_per_s.fcfs", 50., 49., 51.) ])
  in
  Alcotest.(check bool) "40% spread > 15% bound: unresolved" true
    (verdict noisy "jobs_per_s.fcfs" = B.Unresolved);
  Alcotest.(check int) "unresolved never gates" 0 noisy.B.regressions

let test_benchdiff_dedup_and_missing () =
  (* Unmatched metrics are reported, not compared; a higher failed share
     is a regression of its own. *)
  let r =
    compare_ok
      (results [ ("jobs_per_s.fcfs", 100., 99., 101.); ("gone", 1., 1., 1.) ])
      (results ~failed:2 [ ("jobs_per_s.fcfs", 100., 99., 101.); ("new", 1., 1., 1.) ])
  in
  Alcotest.(check int) "one matched metric" 1 (List.length r.B.comparisons);
  Alcotest.(check (list string)) "only_parent" [ "gone" ] r.B.only_parent;
  Alcotest.(check (list string)) "only_change" [ "new" ] r.B.only_change;
  Alcotest.(check int) "higher failed share gates" 1 r.B.regressions;
  Alcotest.(check bool) "render flags the failed share" true
    (contains ~sub:"failed share: 0.000 -> 0.050  WORSE" (B.render r))

let test_benchdiff_parses_bench_json () =
  (* The exact shape benchmark/run.py writes, extra members included. *)
  let text =
    {|{
 "workload": "swf-replay", "seed": 4242, "trace": 0, "seconds": 12.877,
 "attempted": 41, "failed": 0, "errors": [],
 "metrics": {
  "setup_s": {"value": 0.13462747011512555, "median": 0.13462747011512555,
   "q1": 0.11860660339688553, "q3": 0.14079373233471854, "samples": 2,
   "raw": [0.13733390282473829, 1.2e-05], "unit": "s"},
  "jobs_per_s.fcfs": {"value": 456275.3865197422, "median": 456275.3865197422,
   "q1": 408360.1308532103, "q3": 483477.9099015664, "samples": 1, "raw": [456275.3865197422],
   "unit": "jobs/s"}},
 "digests": {"fcfs": [{"makespan": "3056904"}]}, "time_scales": [1.0]
}|}
  in
  match B.results_of_string text with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check string) "workload" "swf-replay" r.B.workload;
    Alcotest.(check (list string)) "metrics by name" [ "jobs_per_s.fcfs"; "setup_s" ]
      (List.map fst r.B.metrics);
    let m = List.assoc "setup_s" r.B.metrics in
    Alcotest.(check (float 1e-12)) "q3" 0.14079373233471854 m.B.q3;
    Alcotest.(check string) "unit" "s" m.B.unit;
    Alcotest.(check bool) "a metric missing q1 is refused" true
      (Result.is_error
         (B.results_of_string
            {|{"workload": "w", "seed": 1, "trace": 0, "attempted": 1, "failed": 0, "errors": [],
               "metrics": {"x": {"value": 1, "median": 1, "q3": 1, "unit": "s"}}}|}))

(* Inputs that cannot be compared are refused, never passed. *)
let refused parent change =
  match B.compare declared ~parent ~change with Error _ -> true | Ok _ -> false

let test_benchdiff_no_common_metric () =
  Alcotest.(check bool) "no metric in common" true
    (refused (results [ ("a", 1., 1., 1.) ]) (results [ ("b", 1., 1., 1.) ]))

let test_benchdiff_different_runs () =
  let m = [ ("jobs_per_s.fcfs", 100., 99., 101.) ] in
  let base = results m in
  Alcotest.(check bool) "workload" true (refused base (results ~workload:"resv-alpha" m));
  Alcotest.(check bool) "seed" true (refused base (results ~seed:1 m));
  Alcotest.(check bool) "trace" true (refused base (results ~trace:1 m))

let test_benchdiff_errors_refused () =
  let m = [ ("jobs_per_s.fcfs", 100., 99., 101.) ] in
  let bad = results ~errors:[ "fcfs: output differs from benchmark/expected.json" ] m in
  Alcotest.(check bool) "change with errors" true (refused (results m) bad);
  Alcotest.(check bool) "parent with errors" true (refused bad (results m))

let suite =
  [
    Alcotest.test_case "counter and gauge basics" `Quick test_counter_gauge_basics;
    Alcotest.test_case "disabled path is a no-op" `Quick test_disabled_path_noop;
    Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch_raises;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_boundaries;
    Alcotest.test_case "prometheus exposition" `Quick test_expose_format;
    Alcotest.test_case "wall prefix convention" `Quick test_wall_prefix;
    Alcotest.test_case "snapshot deterministic across runs" `Quick test_snapshot_deterministic;
    Alcotest.test_case "auto gc counts reclaimed nodes" `Quick test_auto_gc_counted;
    Alcotest.test_case "gc trigger past the node-count cliff" `Quick test_gc_cliff;
    Alcotest.test_case "traced replay byte-identical off" `Quick
      test_traced_replay_byte_identical_off;
    Alcotest.test_case "heartbeat sampler cadence and closing" `Quick test_heartbeat_sampler;
    Alcotest.test_case "heartbeat JSONL round-trip" `Quick test_heartbeat_roundtrip;
    Alcotest.test_case "benchdiff flags 20% slowdown" `Quick test_benchdiff_flags_slowdown;
    Alcotest.test_case "benchdiff rss and noise rows" `Quick test_benchdiff_special_rows;
    Alcotest.test_case "benchdiff dedup and missing keys" `Quick
      test_benchdiff_dedup_and_missing;
    Alcotest.test_case "benchdiff reads bench json" `Quick test_benchdiff_parses_bench_json;
    Alcotest.test_case "benchdiff refuses no common metric" `Quick test_benchdiff_no_common_metric;
    Alcotest.test_case "benchdiff refuses different runs" `Quick test_benchdiff_different_runs;
    Alcotest.test_case "benchdiff refuses inputs with errors" `Quick test_benchdiff_errors_refused;
  ]
