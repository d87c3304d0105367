(* Streaming replay vs the materialising paths: the constant-memory SWF
   reader, the streaming simulator and the incremental metrics must each be
   observationally identical to their batch counterparts — same entries,
   byte-identical event traces, bit-identical summaries. *)

open Resa_core
open Resa_swf
open Resa_sim

(* --- helpers ------------------------------------------------------------ *)

let policies =
  [ Policy.fcfs; Policy.easy; Policy.conservative; Policy.aggressive ]

let synthetic_text seed ~n =
  let rng = Prng.create ~seed in
  Swf.to_string ~comments:[ "oracle" ]
    (Swf.generate rng ~m:32 ~n ~max_runtime:200 ~mean_gap:6.0)

let drain src =
  let rec go acc = match src () with None -> List.rev acc | Some a -> go (a :: acc) in
  go []

let feed (arrivals : Swf_stream.arrival list) =
  let rest = ref arrivals in
  fun () ->
    match !rest with
    | [] -> None
    | a :: tl ->
      rest := tl;
      Some Simulator.{ job = a.Swf_stream.job; submit = a.Swf_stream.submit;
                       estimate = a.Swf_stream.estimate }

(* --- reader: stream vs parse_string ------------------------------------- *)

let stream_matches_batch keep_failed seed =
  let text = synthetic_text seed ~n:25 in
  let streamed = drain (Swf_stream.of_string ~keep_failed ~m:32 text) in
  match Swf.parse_string text with
  | Error _ -> false
  | Ok entries ->
    let batch = Swf.to_estimated_workload ~keep_failed entries ~m:32 in
    let numbers = Swf.job_numbers ~keep_failed entries in
    List.length streamed = List.length batch
    && List.for_all2
         (fun (a : Swf_stream.arrival) (job, submit, estimate) ->
           a.job = job && a.submit = submit && a.estimate = estimate
           && a.job_number = numbers.(Job.id job))
         streamed batch

let prop_reader_oracle =
  Tutil.qcheck ~count:200 "of_string = parse_string |> to_estimated_workload" Tutil.seed_arb
    (stream_matches_batch true)

let prop_reader_oracle_filtered =
  Tutil.qcheck ~count:100 "reader oracle with keep_failed:false" Tutil.seed_arb
    (stream_matches_batch false)

let test_stream_parse_error_line () =
  let text = "; header\n" ^ "1 0 5 100 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1" ^ "\nbad line\n" in
  let src = Swf_stream.of_string ~m:8 text in
  (match src () with Some _ -> () | None -> Alcotest.fail "first entry expected");
  match src () with
  | exception Swf_stream.Parse_error { line; _ } ->
    Alcotest.(check int) "line number" 3 line
  | _ -> Alcotest.fail "Parse_error expected"

let test_stream_file_roundtrip () =
  let text = synthetic_text 7 ~n:20 in
  let path = Filename.temp_file "resa_stream" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
      let from_file = Swf_stream.with_file ~m:32 path drain in
      let from_string = drain (Swf_stream.of_string ~m:32 text) in
      Alcotest.(check int) "same length" (List.length from_string) (List.length from_file);
      if from_file <> from_string then Alcotest.fail "file and string streams differ")

let test_synthetic_shape () =
  let gen () =
    let rng = Prng.create ~seed:11 in
    drain (Swf_stream.synthetic ~overestimate:2.0 rng ~m:64 ~n:500 ~max_runtime:300 ~mean_gap:4.0)
  in
  let xs = gen () in
  Alcotest.(check int) "exactly n arrivals" 500 (List.length xs);
  if gen () <> xs then Alcotest.fail "same seed must replay identically";
  let last = ref 0 in
  List.iteri
    (fun i (a : Swf_stream.arrival) ->
      if Job.id a.job <> i then Alcotest.failf "id %d at position %d" (Job.id a.job) i;
      if a.submit < !last then Alcotest.fail "submits must be non-decreasing";
      last := a.submit;
      if a.estimate < Job.p a.job then Alcotest.fail "estimate below runtime";
      if Job.q a.job < 1 || Job.q a.job > 64 then Alcotest.fail "width out of range")
    xs

(* --- simulator: run_stream vs the estimated batch run (run ~estimates) --- *)

let arrivals_of_seed seed ~n =
  let rng = Prng.create ~seed in
  drain (Swf_stream.synthetic ~overestimate:2.0 rng ~m:16 ~n ~max_runtime:60 ~mean_gap:3.0)

let engines_agree ~gc_every policy seed =
  let arrivals = arrivals_of_seed seed ~n:30 in
  let subs =
    List.map (fun (a : Swf_stream.arrival) -> Simulator.{ job = a.job; submit = a.submit })
      arrivals
  in
  let estimates =
    Array.of_list (List.map (fun (a : Swf_stream.arrival) -> a.Swf_stream.estimate) arrivals)
  in
  let obs_b = Resa_obs.Trace.buffer () in
  let trace = Simulator.run ~obs:obs_b ~policy ~m:16 ~estimates subs in
  let obs_s = Resa_obs.Trace.buffer () in
  let records = ref [] in
  let stats =
    Simulator.run_stream ~obs:obs_s ~gc_every ~policy ~m:16
      ~on_record:(fun r -> records := r :: !records)
      (feed arrivals)
  in
  let by_id =
    List.sort (fun (a : Simulator.record) b -> compare (Job.id a.job) (Job.id b.job))
  in
  stats.Simulator.jobs = List.length arrivals
  && stats.Simulator.makespan = trace.Simulator.makespan
  && by_id !records = by_id trace.Simulator.records
  && Resa_obs.Trace.contents obs_s = Resa_obs.Trace.contents obs_b

let engine_props =
  List.concat_map
    (fun (policy : Policy.t) ->
      [
        Tutil.qcheck ~count:150
          (Printf.sprintf "run_stream = run_estimated (%s)" policy.Policy.name)
          Tutil.seed_arb
          (engines_agree ~gc_every:0 policy);
        Tutil.qcheck ~count:60
          (Printf.sprintf "gc_every:1 is invisible (%s)" policy.Policy.name)
          Tutil.seed_arb
          (engines_agree ~gc_every:1 policy);
      ])
    policies

let test_stream_validates_arrivals () =
  let job = Job.make ~id:0 ~p:5 ~q:2 in
  let once a =
    let sent = ref false in
    fun () -> if !sent then None else (sent := true; Some a)
  in
  let run a = ignore (Simulator.run_stream ~policy:Policy.fcfs ~m:4 (once a)) in
  Alcotest.check_raises "negative submit"
    (Invalid_argument "Simulator.run_stream: negative submit time") (fun () ->
      run Simulator.{ job; submit = -1; estimate = 5 });
  Alcotest.check_raises "estimate below runtime"
    (Invalid_argument "Simulator.run_stream: estimate below the actual runtime") (fun () ->
      run Simulator.{ job; submit = 0; estimate = 4 });
  let wide = Job.make ~id:0 ~p:5 ~q:9 in
  Alcotest.check_raises "too wide"
    (Invalid_argument "Simulator.run_stream: job wider than the machine") (fun () ->
      run Simulator.{ job = wide; submit = 0; estimate = 5 })

(* --- metrics: Stream vs summarize --------------------------------------- *)

let bits = Int64.bits_of_float

let summaries_identical (a : Metrics.summary) (b : Metrics.summary) =
  a.n = b.n && a.makespan = b.makespan && a.max_wait = b.max_wait
  && bits a.mean_wait = bits b.mean_wait
  && bits a.mean_slowdown = bits b.mean_slowdown
  && bits a.mean_bounded_slowdown = bits b.mean_bounded_slowdown
  && bits a.utilization = bits b.utilization

let metrics_agree seed =
  let arrivals = arrivals_of_seed seed ~n:40 in
  let ms = Metrics.Stream.create ~m:16 ~reservations:[] () in
  ignore
    (Simulator.run_stream ~policy:Policy.easy ~m:16
       ~on_record:(Metrics.Stream.observe ms) (feed arrivals)
      : Simulator.stream_stats);
  let subs =
    List.map (fun (a : Swf_stream.arrival) -> Simulator.{ job = a.job; submit = a.submit })
      arrivals
  in
  let estimates =
    Array.of_list (List.map (fun (a : Swf_stream.arrival) -> a.Swf_stream.estimate) arrivals)
  in
  let trace = Simulator.run ~policy:Policy.easy ~m:16 ~estimates subs in
  summaries_identical (Metrics.Stream.summary ms) (Metrics.summarize trace)

let prop_metrics_bitwise =
  Tutil.qcheck ~count:200 "Metrics.Stream = summarize, bit for bit" Tutil.seed_arb metrics_agree

let test_stream_metrics_empty () =
  let ms = Metrics.Stream.create ~m:4 ~reservations:[] () in
  Alcotest.(check int) "no observations" 0 (Metrics.Stream.count ms);
  let s = Metrics.Stream.summary ms in
  Alcotest.(check int) "degenerate n" 0 s.Metrics.n;
  Alcotest.(check bool) "nan utilization" true (Float.is_nan s.Metrics.utilization);
  Alcotest.(check bool) "nan percentile" true (Float.is_nan (Metrics.Stream.wait_p50 ms))

(* --- queue: Jobq vs a list model ---------------------------------------- *)

let jobq_matches_model seed =
  let rng = Prng.create ~seed in
  let q = Jobq.create () in
  let model = ref [] in
  let ok = ref true in
  for i = 0 to 120 do
    (match Prng.int rng ~bound:3 with
    | 0 | 1 ->
      let j = Job.make ~id:i ~p:1 ~q:1 in
      (* The simulator tags each entry with its live slot; here the tag is
         an arbitrary function of the id so the filter exercises it. *)
      Jobq.append q j ~tag:(i * 7);
      model := !model @ [ (j, i * 7) ]
    | _ ->
      let bit = Prng.int rng ~bound:2 in
      let keep tag = tag / 7 land 1 = bit in
      Jobq.filter q keep;
      model := List.filter (fun (_, tag) -> keep tag) !model);
    let n = Jobq.length q in
    if n <> List.length !model then ok := false
    else
      List.iteri
        (fun i (j, tag) ->
          if not (Jobq.get q i == j && Jobq.tag q i = tag) then ok := false)
        !model;
    if Jobq.to_list q <> List.map fst !model then ok := false
  done;
  !ok

let prop_jobq_model =
  Tutil.qcheck ~count:300 "Jobq behaves as a tagged FIFO array" Tutil.seed_arb
    jobq_matches_model

let suite =
  [
    prop_reader_oracle;
    prop_reader_oracle_filtered;
    Alcotest.test_case "parse errors carry line numbers" `Quick test_stream_parse_error_line;
    Alcotest.test_case "file and string streams agree" `Quick test_stream_file_roundtrip;
    Alcotest.test_case "synthetic stream shape and determinism" `Quick test_synthetic_shape;
    Alcotest.test_case "bad arrivals rejected" `Quick test_stream_validates_arrivals;
    Alcotest.test_case "empty stream metrics are degenerate" `Quick test_stream_metrics_empty;
    prop_metrics_bitwise;
    prop_jobq_model;
  ]
  @ engine_props
