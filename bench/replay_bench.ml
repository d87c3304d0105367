(* Streaming replay throughput: jobs/second and peak RSS for each native
   online policy over a synthetic SWF stream, at trace lengths far beyond
   what the materialising path could hold. The point of the series is the
   memory row staying flat as n grows 50x — the engine keeps only the live
   set, the metrics are incremental, and the timeline is compacted as the
   replay advances.

   Registry-only: the full sweep replays 10M jobs per policy, so it is not
   part of the default `bench/main.exe` phase list. Run it explicitly with
   `dune exec bench/main.exe -- replay` (or `--small replay` in CI).

   JSON rows (experiment = "replay"): wall-clock rows carry
   algo = "<policy>" with wall_s in seconds; peak-RSS rows carry
   algo = "rss_mb:<policy>" with wall_s holding the high-water mark in MB
   (the record schema has one float slot; the prefix disambiguates). RSS is
   a process-wide cumulative high-water mark, so within one harness run it
   is monotone across rows — only the first row of a given size regime
   measures that regime cleanly.

   A further row family rides on the same schema: algo =
   "allocs_ev:<policy>" carries minor words allocated per event (arrival
   or completion) over the whole replay, iterator and incremental metrics
   included. Deterministic, so benchdiff gates it like a wall row — the
   flat-core engine keeps it O(1) and small.

   The per-layer split of a replay's wall time (ingest, event queue,
   decide, timeline, metrics) lives in the benchmark/ ledger. *)

open Resa_core

let replay_seed = 4242

let run () =
  Printf.printf "\n=== PERF: Streaming replay throughput (m=128, mean_gap=150, gc_every=1000) ===\n";
  let m = 128 and max_runtime = 2000 and mean_gap = 150.0 and overestimate = 2.0 in
  let gc_every = 1000 in
  let sizes = if !Perf.small then [ 20_000 ] else [ 200_000; 1_000_000; 10_000_000 ] in
  let t =
    Resa_stats.Table.create
      ~headers:[ "n"; "policy"; "wall_s"; "jobs/s"; "max_live"; "util"; "rss_MB" ]
  in
  let records = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun (policy : Resa_sim.Policy.t) ->
          let mw0 = Gc.minor_words () in
          let rng = Prng.create ~seed:replay_seed in
          let src =
            Resa_swf.Swf_stream.synthetic ~overestimate rng ~m ~n ~max_runtime ~mean_gap
          in
          let ms = Resa_sim.Metrics.Stream.create ~m ~reservations:[] () in
          let t0 = Resa_obs.Prof.now_ns () in
          let stats =
            Resa_sim.Simulator.run_stream ~gc_every
              ~on_record:(Resa_sim.Metrics.Stream.observe ms) ~policy ~m
              (fun () ->
                Option.map
                  (fun (a : Resa_swf.Swf_stream.arrival) ->
                    Resa_sim.Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate })
                  (src ()))
          in
          let wall_s = float_of_int (Resa_obs.Prof.now_ns () - t0) /. 1e9 in
          let allocs_ev =
            (Gc.minor_words () -. mw0)
            /. float_of_int (max 1 (2 * stats.Resa_sim.Simulator.jobs))
          in
          let s = Resa_sim.Metrics.Stream.summary ms in
          let rss_mb =
            match Resa_obs.Prof.peak_rss_kb () with
            | Some kb -> float_of_int kb /. 1024.
            | None -> Float.nan
          in
          Resa_stats.Table.add_row t
            [
              string_of_int n;
              policy.Resa_sim.Policy.name;
              Printf.sprintf "%.2f" wall_s;
              Printf.sprintf "%.0f" (float_of_int stats.Resa_sim.Simulator.jobs /. Float.max wall_s 1e-9);
              string_of_int stats.Resa_sim.Simulator.max_live;
              Printf.sprintf "%.3f" s.Resa_sim.Metrics.utilization;
              (if Float.is_nan rss_mb then "-" else Printf.sprintf "%.1f" rss_mb);
            ];
          let mk algo wall_s =
            Bench_json.
              {
                experiment = "replay";
                n;
                algo;
                wall_s;
                speedup = None;
                domains = Resa_par.domain_count ();
                seed = replay_seed;
              }
          in
          records := mk ("rss_mb:" ^ policy.Resa_sim.Policy.name) rss_mb :: !records;
          records := mk ("allocs_ev:" ^ policy.Resa_sim.Policy.name) allocs_ev :: !records;
          records := mk policy.Resa_sim.Policy.name wall_s :: !records)
        Resa_sim.Policy.all)
    sizes;
  print_string (Resa_stats.Table.render t);
  Bench_json.write "replay" (List.rev !records)
