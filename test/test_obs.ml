(* Observability layer: sinks, JSONL round-trips, Chrome export, the
   tracing-off byte-identity contract, cross-domain determinism of traced
   event streams, per-job metrics/CSV, provenance classification, enriched
   policy errors, profiling counters, and the explain renderer. *)

open Resa_core
open Resa_sim
module Trace = Resa_obs.Trace
module Prof = Resa_obs.Prof
module Registry = Resa_obs.Metrics

(* --- shared workload ---------------------------------------------------- *)

let workload ?(seed = 77) ?(n = 25) ?(m = 8) () =
  let rng = Prng.create ~seed in
  let inst = Resa_gen.Random_inst.alpha_restricted rng ~m ~n ~alpha:0.5 ~pmax:9 () in
  let arr = Resa_gen.Arrivals.poisson rng ~n ~mean_gap:2.0 in
  let subs =
    List.init n (fun i -> Simulator.{ job = Instance.job inst i; submit = arr.(i) })
  in
  (subs, Array.to_list (Instance.reservations inst))

(* Serialise a traced run to its canonical JSONL text (run-tagged). The
   simulator hands its tracer to the policy's [create], so policy events
   land in the same sink without extra plumbing. *)
let event_stream ~policy ~name ~m ~reservations subs =
  let obs = Trace.buffer () in
  let trace = Simulator.run ~obs ~policy ~m ~reservations subs in
  let text =
    String.concat "\n" (List.map (Trace.to_json ~run:name) (Trace.contents obs))
  in
  (trace, text)

(* --- sinks -------------------------------------------------------------- *)

let test_ring_bounded () =
  let obs = Trace.buffer ~cap:4 () in
  for t = 0 to 9 do
    Trace.emit obs (Trace.Sim_wake { time = t; forced = false })
  done;
  let times =
    List.map
      (function Trace.Sim_wake { time; _ } -> time | _ -> -1)
      (Trace.contents obs)
  in
  Alcotest.(check (list int)) "most recent cap events, oldest first" [ 6; 7; 8; 9 ] times;
  Alcotest.(check int) "dropped count" 6 (Trace.dropped obs)

let test_null_sink_disabled () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Alcotest.(check bool) "buffer enabled" true (Trace.enabled (Trace.buffer ()));
  Trace.emit Trace.null (Trace.Job_finish { time = 0; job = 0 });
  Alcotest.(check (list reject)) "null keeps nothing" [] (Trace.contents Trace.null)

let test_file_sink_jsonl () =
  let path = Filename.temp_file "resa_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          let obs = Trace.file ~run:"smoke" oc in
          Trace.emit obs (Trace.Job_submit { time = 1; job = 7; p = 3; q = 2 });
          Trace.emit obs (Trace.Job_finish { time = 4; job = 7 }));
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check int) "two lines" 2 (List.length lines);
      match Trace.parse_line (List.hd lines) with
      | Ok (Some "smoke", Trace.Job_submit { time = 1; job = 7; p = 3; q = 2 }) -> ()
      | Ok _ -> Alcotest.fail "wrong event parsed back"
      | Error e -> Alcotest.fail e)

(* --- JSONL round-trip --------------------------------------------------- *)

let all_constructors =
  [
    Trace.Job_submit { time = 0; job = 1; p = 5; q = 2 };
    Trace.Job_start { time = 3; job = 1; wait = 3; provenance = Trace.Started_now };
    Trace.Job_start
      { time = 3; job = 2; wait = 1; provenance = Trace.Backfilled_ahead_of_head };
    Trace.Job_finish { time = 8; job = 1 };
    Trace.Decision { time = 3; policy = "EASY"; queued = 4; started = 2; wake = Some 9 };
    Trace.Decision { time = 4; policy = "FCFS"; queued = 0; started = 0; wake = None };
    Trace.Head_blocked
      {
        time = 3;
        policy = "EASY";
        job = 5;
        reason = Trace.Blocked_by_reservation;
        lo = 3;
        hi = 12;
        need = 6;
        have = 2;
      };
    Trace.Planned { time = 3; policy = "CONS"; job = 5; at = 12 };
    Trace.Resv_accept { resv = 0; start = 10; p = 4; q = 3 };
    Trace.Resv_reject { start = 10; p = 4; q = 30; reason = "too wide \"quoted\"" };
    Trace.Sim_wake { time = 42; forced = true };
    Trace.Truncated { dropped = 6 };
  ]

let test_jsonl_roundtrip () =
  List.iter
    (fun ev ->
      let line = Trace.to_json ~run:"r1" ev in
      match Trace.parse_line line with
      | Ok (run, ev') ->
        Alcotest.(check (option string)) "run tag" (Some "r1") run;
        Alcotest.(check bool) (Printf.sprintf "round-trip %s" line) true (ev = ev')
      | Error e -> Alcotest.failf "parse %s: %s" line e)
    all_constructors;
  (* Untagged lines round-trip too. *)
  let line = Trace.to_json (List.hd all_constructors) in
  match Trace.parse_line line with
  | Ok (None, ev') ->
    Alcotest.(check bool) "untagged" true (List.hd all_constructors = ev')
  | Ok (Some _, _) -> Alcotest.fail "phantom run tag"
  | Error e -> Alcotest.fail e

let test_provenance_strings () =
  List.iter
    (fun p ->
      match Trace.provenance_of_string (Trace.provenance_to_string p) with
      | Some p' -> Alcotest.(check bool) "provenance round-trip" true (p = p')
      | None -> Alcotest.fail "unparseable provenance")
    [
      Trace.Started_now;
      Trace.Backfilled_ahead_of_head;
      Trace.Blocked_by_reservation;
      Trace.Blocked_by_capacity;
      Trace.Held_by_policy;
    ]

(* --- tracing off is byte-identical -------------------------------------- *)

let test_tracing_off_identical () =
  let subs, reservations = workload () in
  List.iter
    (fun (name, policy) ->
      let plain = Simulator.run ~policy ~m:8 ~reservations subs in
      let obs = Trace.buffer () in
      let traced = Simulator.run ~obs ~policy ~m:8 ~reservations subs in
      let starts (t : Simulator.trace) =
        List.map (fun (r : Simulator.record) -> r.start) t.records
      in
      Alcotest.(check (list int))
        (name ^ ": identical starts") (starts plain) (starts traced);
      Alcotest.(check string)
        (name ^ ": identical metrics row")
        (Metrics.row ~name (Metrics.summarize plain))
        (Metrics.row ~name (Metrics.summarize traced));
      let inst, sched = Simulator.to_offline traced in
      (match Schedule.validate inst sched with
      | Ok () -> ()
      | Error v -> Alcotest.failf "%s: infeasible: %a" name Schedule.pp_violation v);
      Alcotest.(check bool) (name ^ ": events collected") true (Trace.contents obs <> []))
    [
      ("FCFS", Policy.fcfs);
      ("CONS", Policy.conservative);
      ("EASY", Policy.easy);
      ("LSRC", Policy.aggressive);
    ]

(* --- deterministic event streams across pool sizes ----------------------- *)

let test_deterministic_across_domains () =
  let subs, reservations = workload ~n:30 () in
  let policies =
    [
      ("FCFS", Policy.fcfs);
      ("CONS", Policy.conservative);
      ("EASY", Policy.easy);
      ("LSRC", Policy.aggressive);
    ]
  in
  let streams () =
    Resa_par.parallel_map_list
      (fun (name, policy) -> snd (event_stream ~policy ~name ~m:8 ~reservations subs))
      policies
  in
  let s1 = Resa_par.with_domains 1 streams in
  let s4 = Resa_par.with_domains 4 streams in
  List.iter2
    (fun a b -> Alcotest.(check string) "identical serialized stream" a b)
    s1 s4

(* --- provenance classification ------------------------------------------ *)

let start_event_of obs id =
  List.find_map
    (function
      | Trace.Job_start { job; provenance; wait; time } when job = id ->
        Some (time, wait, provenance)
      | _ -> None)
    (Trace.contents obs)

let test_backfill_provenance () =
  (* The EASY example from test_sim: j2 backfills past the blocked head j1. *)
  let subs =
    [
      Simulator.{ job = Job.make ~id:0 ~p:4 ~q:3; submit = 0 };
      Simulator.{ job = Job.make ~id:1 ~p:4 ~q:4; submit = 0 };
      Simulator.{ job = Job.make ~id:2 ~p:4 ~q:1; submit = 0 };
    ]
  in
  let obs = Trace.buffer () in
  let _ = Simulator.run ~obs ~policy:Policy.easy ~m:4 subs in
  (match start_event_of obs 2 with
  | Some (0, 0, Trace.Backfilled_ahead_of_head) -> ()
  | Some (t, w, p) ->
    Alcotest.failf "j2: got t=%d wait=%d %s" t w (Trace.provenance_to_string p)
  | None -> Alcotest.fail "j2 start event missing");
  (match start_event_of obs 0 with
  | Some (0, 0, Trace.Started_now) -> ()
  | _ -> Alcotest.fail "j0 should be started-now");
  (* The blocked head j1 must be reported blocked by capacity (running j0
     holds 3 of 4 processors), and its wait recorded at start. *)
  let head_blocks =
    List.filter_map
      (function
        | Trace.Head_blocked { job = 1; reason; need; have; _ } -> Some (reason, need, have)
        | _ -> None)
      (Trace.contents obs)
  in
  match head_blocks with
  | (Trace.Blocked_by_capacity, 4, have) :: _ when have < 4 -> ()
  | (r, n, h) :: _ ->
    Alcotest.failf "head block: %s need=%d have=%d" (Trace.provenance_to_string r) n h
  | [] -> Alcotest.fail "no Head_blocked for j1"

let test_reservation_blocked_provenance () =
  (* One reservation holds the whole machine over [0,5): the head is blocked
     by it, not by running jobs. *)
  let resv = [ Reservation.make ~id:0 ~start:0 ~p:5 ~q:4 ] in
  let subs = [ Simulator.{ job = Job.make ~id:0 ~p:3 ~q:2; submit = 0 } ] in
  let obs = Trace.buffer () in
  let _ = Simulator.run ~obs ~policy:Policy.fcfs ~m:4 ~reservations:resv subs in
  let reasons =
    List.filter_map
      (function Trace.Head_blocked { reason; _ } -> Some reason | _ -> None)
      (Trace.contents obs)
  in
  match reasons with
  | Trace.Blocked_by_reservation :: _ -> ()
  | r :: _ -> Alcotest.failf "expected reservation block, got %s" (Trace.provenance_to_string r)
  | [] -> Alcotest.fail "no Head_blocked emitted"

(* --- reservation book events -------------------------------------------- *)

let test_book_emits_admission_events () =
  let obs = Trace.buffer () in
  let book = Reservation_book.create ~obs ~m:10 ~alpha:0.6 () in
  (match Reservation_book.request book ~start:0 ~p:5 ~q:3 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "in-cap request rejected");
  (match Reservation_book.request book ~start:2 ~p:5 ~q:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "saturating request accepted");
  match Trace.contents obs with
  | [ Trace.Resv_accept { resv = 0; start = 0; p = 5; q = 3 }; Trace.Resv_reject { reason; _ } ]
    ->
    Alcotest.(check bool) "reject reason rendered" true (String.length reason > 0)
  | evs -> Alcotest.failf "unexpected admission events (%d)" (List.length evs)

(* --- Chrome export ------------------------------------------------------ *)

let test_chrome_export_wellformed () =
  let subs, reservations = workload ~n:12 () in
  let obs = Trace.buffer () in
  let trace = Simulator.run ~obs ~policy:Policy.easy ~m:8 ~reservations subs in
  let slices = Sim_trace.chrome_slices ~process:"EASY" trace in
  Alcotest.(check bool) "has slices" true (slices <> []);
  let doc = Resa_obs.Chrome.to_string slices in
  match Resa_obs.Jsonu.of_string doc with
  | Error e -> Alcotest.failf "chrome JSON does not parse: %s" e
  | Ok json -> (
    match Resa_obs.Jsonu.member "traceEvents" json with
    | Some (Resa_obs.Jsonu.List evs) ->
      Alcotest.(check bool) "traceEvents non-empty" true (evs <> []);
      (* Every complete event must carry pid/tid/ts/dur. *)
      List.iter
        (fun ev ->
          match Resa_obs.Jsonu.member "ph" ev with
          | Some (Resa_obs.Jsonu.Str "X") ->
            List.iter
              (fun k ->
                if Resa_obs.Jsonu.member k ev = None then
                  Alcotest.failf "slice missing %s" k)
              [ "pid"; "tid"; "ts"; "dur"; "name" ]
          | _ -> ())
        evs
    | _ -> Alcotest.fail "no traceEvents array")

let test_chrome_of_spans_tracks () =
  let slices =
    Resa_obs.Chrome.of_spans ~process:"executor"
      [
        { Prof.name = "a"; cat = "x"; domain = 0; start_ns = 5_000; dur_ns = 2_000 };
        { Prof.name = "b"; cat = "x"; domain = 1; start_ns = 6_000; dur_ns = 500 };
      ]
  in
  Alcotest.(check int) "two slices" 2 (List.length slices);
  let a = List.hd slices in
  Alcotest.(check int) "rebased to 0" 0 a.Resa_obs.Chrome.ts_us;
  Alcotest.(check string) "domain track" "domain 0" a.Resa_obs.Chrome.track

(* --- per-job metrics and CSV -------------------------------------------- *)

let test_per_job_and_csv () =
  let subs, reservations = workload ~n:15 () in
  let obs = Trace.buffer () in
  let trace = Simulator.run ~obs ~policy:Policy.easy ~m:8 ~reservations subs in
  let provs = Trace.start_provenances (Trace.contents obs) in
  let provenance id =
    match List.assoc_opt id provs with
    | Some p -> Trace.provenance_to_string p
    | None -> ""
  in
  let rows = Metrics.per_job ~provenance trace in
  Alcotest.(check int) "one row per job" 15 (List.length rows);
  let s = Metrics.summarize trace in
  let fsum = List.fold_left ( +. ) 0.0 in
  Alcotest.(check (float 1e-9))
    "mean wait consistent" s.Metrics.mean_wait
    (fsum (List.map (fun r -> float_of_int r.Metrics.wait) rows) /. 15.);
  List.iter
    (fun r ->
      Alcotest.(check int) "wait = start - submit" r.Metrics.wait
        (r.Metrics.start - r.Metrics.submit);
      Alcotest.(check bool) "provenance tagged" true (r.Metrics.provenance <> ""))
    rows;
  let csv = Metrics.per_job_csv ~run:"EASY" rows in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + rows" 16 (List.length lines);
  Alcotest.(check string) "header"
    "run,job,job_number,submit,start,wait,finish,p,q,slowdown,bounded_slowdown,provenance"
    (List.hd lines);
  List.iter
    (fun line ->
      Alcotest.(check int) "12 columns" 12
        (List.length (String.split_on_char ',' line)))
    lines

let test_empty_summary_is_explicit () =
  let trace = Simulator.run ~policy:Policy.fcfs ~m:2 [] in
  let s = Metrics.summarize trace in
  Alcotest.(check int) "n" 0 s.Metrics.n;
  Alcotest.(check bool) "utilization is nan" true (Float.is_nan s.Metrics.utilization);
  Alcotest.(check (list reject)) "no per-job rows" [] (Metrics.per_job trace)

(* --- enriched policy errors --------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_policy_error_messages () =
  let overcommit =
    Policy.
      {
        name = "ROGUE";
        create =
          (fun ~obs:_ ~time:_ ~queue ~free:_ ->
            { start_now = Jobq.to_list queue; wake = None });
      }
  in
  let subs =
    [
      Simulator.{ job = Job.make ~id:0 ~p:2 ~q:2; submit = 0 };
      Simulator.{ job = Job.make ~id:1 ~p:2 ~q:2; submit = 0 };
    ]
  in
  (match Simulator.run ~policy:overcommit ~m:2 subs with
  | exception Simulator.Policy_error msg ->
    List.iter
      (fun sub ->
        Alcotest.(check bool) (Printf.sprintf "capacity msg has %S" sub) true
          (contains ~sub msg))
      [ "ROGUE"; "at t=0"; "window [0,2)"; "needs 2" ]
  | _ -> Alcotest.fail "capacity violation not caught");
  let phantom =
    Policy.
      {
        name = "PHANTOM";
        create =
          (fun ~obs:_ ~time:_ ~queue:_ ~free:_ ->
            { start_now = [ Job.make ~id:99 ~p:1 ~q:1 ]; wake = None });
      }
  in
  match Simulator.run ~policy:phantom ~m:2 [ List.hd subs ] with
  | exception Simulator.Policy_error msg ->
    List.iter
      (fun sub ->
        Alcotest.(check bool) (Printf.sprintf "phantom msg has %S" sub) true
          (contains ~sub msg))
      [ "PHANTOM"; "at t="; "not in the queue" ]
  | _ -> Alcotest.fail "phantom start not caught"

(* --- profiling ----------------------------------------------------------- *)

let test_prof_counters () =
  Tutil.with_metrics (fun () ->
      let rng = Prng.create ~seed:5 in
      let inst = Resa_gen.Random_inst.alpha_restricted rng ~m:8 ~n:20 ~alpha:0.5 ~pmax:9 () in
      ignore (Resa_algos.Lsrc.run inst);
      let find = Tutil.counter in
      Alcotest.(check bool) "lsrc instants counted" true (find "lsrc.decision_instants" > 0);
      Alcotest.(check int) "all jobs placed" 20 (find "lsrc.jobs_placed");
      Alcotest.(check bool) "timeline ops counted" true (find "timeline.min_on" > 0);
      (* The simulator opens one speculation scope per decision; every
         checkpoint must be paired with a rollback. *)
      let subs, reservations = workload ~n:10 () in
      ignore (Simulator.run ~policy:Policy.easy ~m:8 ~reservations subs);
      Alcotest.(check bool) "checkpoints counted" true (find "timeline.checkpoint" > 0);
      Alcotest.(check int) "checkpoints all resolved" (find "timeline.checkpoint")
        (find "timeline.rollback" + find "timeline.commit");
      Alcotest.(check bool) "spans recorded" true
        (List.exists (fun s -> s.Prof.name = "lsrc.run_order") (Prof.spans ()));
      Alcotest.(check bool) "engine counts reach the exposition" true
        (contains ~sub:"resa_timeline_checkpoint " (Registry.expose ()));
      Prof.reset ();
      Alcotest.(check int) "reset zeroes counters" 0 (find "lsrc.jobs_placed");
      Alcotest.(check (list reject)) "reset drops spans" [] (Prof.spans ()))

let test_prof_disabled_is_noop () =
  Tutil.without_metrics (fun () ->
      Prof.reset ();
      let rng = Prng.create ~seed:5 in
      let inst = Resa_gen.Random_inst.alpha_restricted rng ~m:8 ~n:20 ~alpha:0.5 ~pmax:9 () in
      ignore (Resa_algos.Lsrc.run inst);
      Alcotest.(check int) "disabled counter stays 0" 0 (Tutil.counter "lsrc.jobs_placed");
      Alcotest.(check int) "disabled timeline ops stay 0" 0 (Tutil.counter "timeline.min_on");
      Alcotest.(check (list reject)) "disabled spans not recorded" [] (Prof.spans ()))

let test_clock_monotonic () =
  let prev = ref (Prof.now_ns ()) and backwards = ref 0 in
  for _ = 1 to 100_000 do
    let t = Prof.now_ns () in
    if t < !prev then incr backwards;
    prev := t
  done;
  Alcotest.(check int) "no read below its predecessor" 0 !backwards

(* --- explain ------------------------------------------------------------- *)

let test_explain_render () =
  let subs, reservations = workload ~n:10 () in
  let text =
    String.concat "\n"
      (List.map
         (fun (name, policy) -> snd (event_stream ~policy ~name ~m:8 ~reservations subs))
         [ ("FCFS", Policy.fcfs); ("EASY", Policy.easy) ])
  in
  let events =
    List.map
      (fun line ->
        match Trace.parse_line line with Ok e -> e | Error e -> Alcotest.fail e)
      (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text))
  in
  let out = Resa_obs.Explain.render events in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "explain mentions %S" sub) true
        (contains ~sub out))
    [ "== FCFS =="; "== EASY =="; "decisions:"; "job 0"; "started" ]

(* --- truncation surfacing ------------------------------------------------ *)

let test_truncation_surfaced () =
  (* An overflowed ring flushes with a trailing truncated summary line,
     and explain turns it into a visible warning. *)
  let obs = Trace.buffer ~cap:4 () in
  for t = 0 to 9 do
    Trace.emit obs (Trace.Sim_wake { time = t; forced = false })
  done;
  let path = Filename.temp_file "resa_trunc" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Trace.flush_jsonl ~run:"r" oc obs);
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check int) "4 kept events + 1 summary" 5 (List.length lines);
      (match Trace.parse_line (List.nth lines 4) with
      | Ok (Some "r", Trace.Truncated { dropped = 6 }) -> ()
      | Ok _ -> Alcotest.fail "trailing line is not the truncation summary"
      | Error e -> Alcotest.fail e);
      let events =
        List.map
          (fun l -> match Trace.parse_line l with Ok e -> e | Error e -> Alcotest.fail e)
          lines
      in
      let out = Resa_obs.Explain.render events in
      Alcotest.(check bool) "explain warns about the gap" true
        (contains ~sub:"6 events dropped" out));
  (* No summary line when nothing was dropped. *)
  let obs = Trace.buffer () in
  Trace.emit obs (Trace.Sim_wake { time = 0; forced = false });
  let path = Filename.temp_file "resa_notrunc" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Trace.flush_jsonl oc obs);
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check int) "just the event" 1 (List.length lines))

(* --- executor busy accounting ---------------------------------------------- *)

let test_busy_high_domain_ids () =
  (* Domain ids grow monotonically over the process lifetime; busy time
     from every domain, however high its id, lands in the one executor
     counter, and the pool itself credits it. *)
  Tutil.with_metrics (fun () ->
      let busy = Registry.counter "wall.par.busy_ns" in
      let last_id = ref 0 in
      let spawned = ref 0 in
      while !last_id < 300 && !spawned < 512 do
        let d =
          Domain.spawn (fun () ->
              Registry.add busy 7;
              (Domain.self () :> int))
        in
        last_id := Domain.join d;
        incr spawned
      done;
      Alcotest.(check bool) "reached a domain id past 300" true (!last_id >= 300);
      Alcotest.(check int) "every spawned domain summed exactly" (7 * !spawned)
        (Tutil.counter "wall.par.busy_ns");
      let before = Registry.value busy in
      ignore
        (Resa_par.parallel_map
           (fun k -> Array.fold_left ( + ) 0 (Array.init 1000 (fun i -> i * k)))
           (Array.init 8 Fun.id));
      Alcotest.(check bool) "pool tasks credit the counter" true (Registry.value busy > before))

let suite =
  [
    Alcotest.test_case "ring buffer bounded" `Quick test_ring_bounded;
    Alcotest.test_case "null sink disabled" `Quick test_null_sink_disabled;
    Alcotest.test_case "file sink writes JSONL" `Quick test_file_sink_jsonl;
    Alcotest.test_case "JSONL round-trip (all constructors)" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "provenance string round-trip" `Quick test_provenance_strings;
    Alcotest.test_case "tracing off is byte-identical" `Quick test_tracing_off_identical;
    Alcotest.test_case "event streams identical across pool sizes" `Quick
      test_deterministic_across_domains;
    Alcotest.test_case "backfill provenance classified" `Quick test_backfill_provenance;
    Alcotest.test_case "reservation-blocked provenance" `Quick
      test_reservation_blocked_provenance;
    Alcotest.test_case "book emits admission events" `Quick test_book_emits_admission_events;
    Alcotest.test_case "chrome export well-formed" `Quick test_chrome_export_wellformed;
    Alcotest.test_case "chrome span tracks" `Quick test_chrome_of_spans_tracks;
    Alcotest.test_case "per-job rows and CSV" `Quick test_per_job_and_csv;
    Alcotest.test_case "empty summary explicit" `Quick test_empty_summary_is_explicit;
    Alcotest.test_case "policy errors carry context" `Quick test_policy_error_messages;
    Alcotest.test_case "prof counters and spans" `Quick test_prof_counters;
    Alcotest.test_case "prof disabled is a no-op" `Quick test_prof_disabled_is_noop;
    Alcotest.test_case "prof clock never decreases" `Quick test_clock_monotonic;
    Alcotest.test_case "busy accounting at high domain ids" `Quick test_busy_high_domain_ids;
    Alcotest.test_case "explain renders a trace" `Quick test_explain_render;
    Alcotest.test_case "truncation surfaced on flush and explain" `Quick
      test_truncation_surfaced;
  ]
