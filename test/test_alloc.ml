(* Allocation budgets of the replay hot path, in minor words. The engine
   owns no per-event allocation beyond what its interfaces fix — one cons
   cell per started job in the policy's answer (3 words) and the record
   handed to [on_record] (4), 7 words per job or 3.5 per event — so a
   closure, a ref or a boxed float slipping back into the loop shows up
   here as a budget overrun, on any machine. A second budget bounds the
   fixed cost of starting one small run. *)

open Resa_core
open Resa_sim

(* Minor words allocated by [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* 20k jobs on m=64 (runtimes up to 400, mean gap 40, walltimes
   overestimated 2x on average: utilization ~0.45, a stable queue), pulled
   from pre-built [Some] cells so the source allocates nothing. *)
let arrivals =
  lazy
    (let src =
       Resa_swf.Swf_stream.synthetic ~overestimate:2.0 (Prng.create ~seed:4242) ~m:64 ~n:20_000
         ~max_runtime:400 ~mean_gap:40.0
     in
     let rec go acc =
       match src () with
       | None -> Array.of_list (List.rev acc)
       | Some (a : Resa_swf.Swf_stream.arrival) ->
         go (Some Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate } :: acc)
     in
     go [])

let words_per_event policy =
  let arr = Lazy.force arrivals in
  let i = ref 0 in
  let next () =
    if !i >= Array.length arr then None
    else begin
      let a = arr.(!i) in
      incr i;
      a
    end
  in
  let on_record (_ : Simulator.record) = () in
  let stats = ref None in
  let words =
    Tutil.without_metrics (fun () ->
        minor_words (fun () ->
            stats := Some (Simulator.run_stream ~on_record ~policy ~m:64 next)))
  in
  let jobs = (Option.get !stats).Simulator.jobs in
  words /. float_of_int (2 * jobs)

let test_replay_budget (policy, budget) () =
  let w = words_per_event policy in
  if w > budget then
    Alcotest.failf "%s allocates %.2f minor words/event, budget %.0f" policy.Policy.name w budget

(* Measured 3.58–3.70: 3.5 plus the run's start-up and its arrays'
   growth, spread over 40,000 events. *)
let budgets =
  [ (Policy.fcfs, 4.); (Policy.easy, 4.); (Policy.aggressive, 4.); (Policy.conservative, 4.) ]

(* The materialised path with reservations: [Simulator.run] on the bench's
   [sim] workload at n = 2000 (m=128, n/20 reservations, seed 1236),
   minor words per event (admit or completion), list conversion and
   record collection included. It measures 9.7–10.4 words/event; the
   budget is that plus about 15 %. *)
let sim_workload = lazy (Resa_bench.Perf.sim_subs 2000)
let sim_budget = 12.

let test_sim_budget (policy : Policy.t) () =
  let subs, reservations = Lazy.force sim_workload in
  let words =
    Tutil.without_metrics (fun () ->
        minor_words (fun () ->
            ignore (Simulator.run ~policy ~m:128 ~reservations subs : Simulator.trace)))
  in
  let w = words /. float_of_int (2 * List.length subs) in
  if w > sim_budget then
    Alcotest.failf "%s: Simulator.run allocates %.2f minor words/event, budget %.0f" policy.name w
      sim_budget

let test_stream_observe_budget () =
  let n = 100_000 in
  let rng = Prng.create ~seed:7 in
  let records =
    Array.init n (fun i ->
        let p = Prng.int_incl rng ~lo:1 ~hi:500 and submit = 10 * i in
        Simulator.
          {
            job = Job.make ~id:i ~p ~q:(Prng.int_incl rng ~lo:1 ~hi:16);
            submit;
            start = submit + Prng.int_incl rng ~lo:0 ~hi:2000;
          })
  in
  let ms = Metrics.Stream.create ~m:16 ~reservations:[] () in
  (* Warm the sketches and the summation partials, so growth of their
     arrays is not charged to the steady state. *)
  Array.iteri (fun i r -> if i < 1000 then Metrics.Stream.observe ms r) records;
  let words =
    minor_words (fun () ->
        for i = 1000 to n - 1 do
          Metrics.Stream.observe ms records.(i)
        done)
  in
  let per = words /. float_of_int (n - 1000) in
  if per > 0.05 then Alcotest.failf "Metrics.Stream.observe allocates %.3f words/record" per

(* Fixed cost of one engine run: minor words plus the words allocated
   directly in the major heap (large arrays skip the minor heap, so
   [Gc.minor_words] alone would not see an oversized start-up table). A
   5-job run on 8 processors must not pay for structures sized for a
   large replay. *)
let startup_words policy =
  let subs =
    List.init 5 (fun i ->
        Tutil.exact (Job.make ~id:i ~p:(3 + (2 * i)) ~q:(1 + (3 * i mod 8))) i)
  in
  let direct_major (s : Gc.stat) = s.major_words -. s.promoted_words in
  Tutil.without_metrics (fun () ->
      let s0 = Gc.quick_stat () in
      let minor =
        minor_words (fun () -> ignore (Simulator.run ~policy ~m:8 subs : Simulator.trace))
      in
      let s1 = Gc.quick_stat () in
      minor +. direct_major s1 -. direct_major s0)

let startup_budget = 4000.

let test_startup_budget (policy : Policy.t) () =
  let w = startup_words policy in
  if w > startup_budget then
    Alcotest.failf "%s allocates %.0f words for a 5-job run, budget %.0f" policy.name w
      startup_budget

(* Fixed cost of one reserved run, the unit of the exact-resv benchmark
   workload: the first instance of the exact solver's reserved family
   (6 jobs on 64 processors, 100 reservations over 4000 time units),
   every job submitted at 0, through the engine, the streaming metrics and
   the closing heartbeat, for each policy. A reservation-edge sweep
   written straight into the timeline keeps FCFS, EASY and LSRC near 2,500
   words, and CONS near 3,150 with its plan copied block by block.
   Building profiles for the instance, the timeline and the utilization
   took ~21,800; seeding CONS's plan through a profile round trip took
   ~7,500. *)
let reserved_startup_budget = 4000.

let reserved_instance () =
  let inst =
    Resa_gen.Random_inst.alpha_restricted (Prng.create ~seed:1) ~m:64 ~n:6 ~alpha:0.6 ~pmax:200
      ~n_reservations:100 ~horizon:4000 ()
  in
  (Instance.jobs inst, Array.to_list (Instance.reservations inst))

(* One replay of it with streaming metrics; [on_row] gets each heartbeat
   row, the closing one included. *)
let reserved_run ~on_row policy (jobs, reservations) =
  let ms = Metrics.Stream.create ~m:64 ~reservations () in
  let i = ref 0 in
  let next () =
    if !i >= Array.length jobs then None
    else begin
      let job = jobs.(!i) in
      incr i;
      Some Simulator.{ job; submit = 0; estimate = Job.p job }
    end
  in
  let on_heartbeat hb = on_row (Heartbeat.make ~stream:ms hb) in
  ignore
    (Simulator.run_stream ~on_heartbeat ~on_record:(Metrics.Stream.observe ms) ~policy ~m:64
       ~reservations next
      : Simulator.stream_stats)

let reserved_startup_words policy =
  let instance = reserved_instance () in
  let direct_major (s : Gc.stat) = s.major_words -. s.promoted_words in
  Tutil.without_metrics (fun () ->
      let s0 = Gc.quick_stat () in
      let minor = minor_words (fun () -> reserved_run ~on_row:ignore policy instance) in
      let s1 = Gc.quick_stat () in
      minor +. direct_major s1 -. direct_major s0)

let test_reserved_startup_budget () =
  List.iter
    (fun (policy : Policy.t) ->
      let w = reserved_startup_words policy in
      if w > reserved_startup_budget then
        Alcotest.failf "%s: a reserved 6-job run allocates %.0f words, budget %.0f" policy.name
          w reserved_startup_budget)
    Policy.all

(* Encoding cost of the observability wire formats, in minor words: one
   JSONL line for each [Trace] constructor, run-tagged as [resa replay]
   writes them, and the closing heartbeat row of a reserved run as the
   exact-resv benchmark writes it (no run tag, no registry, no wall
   section). Every line is built as a [Jsonu] tree and printed by
   [Jsonu.to_string]; the counts below are that tree, the output buffer
   and the returned string. *)
let trace_events =
  Resa_obs.Trace.
    [
      Job_submit { time = 29_955_774; job = 199_999; p = 1_234; q = 17 };
      Job_start
        { time = 29_955_774; job = 199_999; wait = 16_357; provenance = Backfilled_ahead_of_head };
      Job_finish { time = 29_955_774; job = 199_999 };
      Decision
        { time = 29_955_774; policy = "FCFS"; queued = 264; started = 3; wake = Some 29_956_000 };
      Head_blocked
        {
          time = 29_955_774; policy = "FCFS"; job = 199_999; reason = Blocked_by_capacity;
          lo = 29_955_774; hi = 29_957_008; need = 17; have = 3;
        };
      Planned { time = 29_955_774; policy = "CONS"; job = 199_999; at = 29_957_008 };
      Resv_accept { resv = 41; start = 29_955_774; p = 1_234; q = 17 };
      Resv_reject { start = 29_955_774; p = 1_234; q = 17; reason = "alpha" };
      Sim_wake { time = 29_955_774; forced = true };
    ]

(* 956 words for the nine lines (~106 a line: ~60 of tree, ~40 of output
   buffer, the string). Formatting every number through [Printf] and
   escaping every key through a fresh buffer took 3,878. *)
let trace_lines_budget = 1095.

let test_trace_lines_budget () =
  let w =
    minor_words (fun () ->
        List.iter (fun ev -> ignore (Resa_obs.Trace.to_json ~run:"FCFS" ev : string)) trace_events)
  in
  if w > trace_lines_budget then
    Alcotest.failf "encoding %d run-tagged trace lines allocates %.0f words, budget %.0f"
      (List.length trace_events) w trace_lines_budget

let closing_row () =
  let last = ref None in
  reserved_run ~on_row:(fun r -> last := Some r) Policy.fcfs (reserved_instance ());
  Option.get !last

(* 185 words: ~120 of tree, ~40 of output buffer, the 175-byte string
   and the one non-integral number. Through [Printf] it took 1,062. *)
let heartbeat_row_budget = 210.

let test_heartbeat_row_budget () =
  let row = Tutil.without_metrics closing_row in
  Out_channel.with_open_bin Filename.null (fun oc ->
      let w = minor_words (fun () -> Heartbeat.write oc row) in
      if w > heartbeat_row_budget then
        Alcotest.failf "Heartbeat.write of a closing row allocates %.0f words, budget %.0f" w
          heartbeat_row_budget)

let suite =
  List.map
    (fun ((p : Policy.t), budget) ->
      Alcotest.test_case
        (Printf.sprintf "%s replay within %.0f words/event" p.name budget)
        `Quick (test_replay_budget (p, budget)))
    budgets
  @ [ Alcotest.test_case "Metrics.Stream.observe allocation-free" `Quick test_stream_observe_budget ]
  @ List.map
      (fun (p : Policy.t) ->
        Alcotest.test_case
          (Printf.sprintf "%s start-up within %.0f words" p.name startup_budget)
          `Quick (test_startup_budget p))
      Policy.all
  @ [
      Alcotest.test_case
        (Printf.sprintf "reserved start-up within %.0f words" reserved_startup_budget)
        `Quick test_reserved_startup_budget;
    ]
  @ List.map
      (fun (p : Policy.t) ->
        Alcotest.test_case
          (Printf.sprintf "%s sim run within %.0f words/event" p.name sim_budget)
          `Quick (test_sim_budget p))
      Policy.all
  @ [
      Alcotest.test_case
        (Printf.sprintf "trace lines within %.0f words" trace_lines_budget)
        `Quick test_trace_lines_budget;
      Alcotest.test_case
        (Printf.sprintf "heartbeat row within %.0f words" heartbeat_row_budget)
        `Quick test_heartbeat_row_budget;
    ]
