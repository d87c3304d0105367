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
  let obs, obs_events = Tutil.recorder () in
  let trace = Simulator.run ~obs ~policy ~m ~reservations subs in
  (trace, String.concat "\n" (List.map (Trace.to_json ~run:name) (obs_events ())))

(* --- sinks -------------------------------------------------------------- *)

let test_null_sink_disabled () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Alcotest.(check bool) "sink enabled" true (Trace.enabled (Trace.sink ignore));
  Trace.emit Trace.null (Trace.Job_finish { time = 0; job = 0 })

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

let test_sink_sees_every_event () =
  (* The callback sink holds nothing back and drops nothing: it sees every
     event, in emission order, and a traced run hands it a start and a
     finish for every job. *)
  let seen = ref [] in
  let obs = Trace.sink (fun ev -> seen := ev :: !seen) in
  List.iter (Trace.emit obs) all_constructors;
  Alcotest.(check bool) "every event, in order" true (List.rev !seen = all_constructors);
  let subs, reservations = workload ~n:40 () in
  let starts = ref [] and finishes = ref 0 in
  let obs =
    Trace.sink (function
      | Trace.Job_start { job; _ } -> starts := job :: !starts
      | Trace.Job_finish _ -> incr finishes
      | _ -> ())
  in
  ignore (Simulator.run ~obs ~policy:Policy.easy ~m:8 ~reservations subs : Simulator.trace);
  Alcotest.(check (list int)) "one start per job" (List.init 40 Fun.id) (List.sort compare !starts);
  Alcotest.(check int) "one finish per job" 40 !finishes

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
      let obs, obs_events = Tutil.recorder () in
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
      Alcotest.(check bool) (name ^ ": events collected") true (obs_events () <> []))
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

let start_event_of events id =
  List.find_map
    (function
      | Trace.Job_start { job; provenance; wait; time } when job = id ->
        Some (time, wait, provenance)
      | _ -> None)
    (events ())

let test_backfill_provenance () =
  (* The EASY example from test_sim: j2 backfills past the blocked head j1. *)
  let subs =
    [
      Simulator.{ job = Job.make ~id:0 ~p:4 ~q:3; submit = 0 };
      Simulator.{ job = Job.make ~id:1 ~p:4 ~q:4; submit = 0 };
      Simulator.{ job = Job.make ~id:2 ~p:4 ~q:1; submit = 0 };
    ]
  in
  let obs, obs_events = Tutil.recorder () in
  let _ = Simulator.run ~obs ~policy:Policy.easy ~m:4 subs in
  (match start_event_of obs_events 2 with
  | Some (0, 0, Trace.Backfilled_ahead_of_head) -> ()
  | Some (t, w, p) ->
    Alcotest.failf "j2: got t=%d wait=%d %s" t w (Trace.provenance_to_string p)
  | None -> Alcotest.fail "j2 start event missing");
  (match start_event_of obs_events 0 with
  | Some (0, 0, Trace.Started_now) -> ()
  | _ -> Alcotest.fail "j0 should be started-now");
  (* The blocked head j1 must be reported blocked by capacity (running j0
     holds 3 of 4 processors), and its wait recorded at start. *)
  let head_blocks =
    List.filter_map
      (function
        | Trace.Head_blocked { job = 1; reason; need; have; _ } -> Some (reason, need, have)
        | _ -> None)
      (obs_events ())
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
  let obs, obs_events = Tutil.recorder () in
  let _ = Simulator.run ~obs ~policy:Policy.fcfs ~m:4 ~reservations:resv subs in
  let reasons =
    List.filter_map
      (function Trace.Head_blocked { reason; _ } -> Some reason | _ -> None)
      (obs_events ())
  in
  match reasons with
  | Trace.Blocked_by_reservation :: _ -> ()
  | r :: _ -> Alcotest.failf "expected reservation block, got %s" (Trace.provenance_to_string r)
  | [] -> Alcotest.fail "no Head_blocked emitted"

(* --- reservation book events -------------------------------------------- *)

let test_book_emits_admission_events () =
  let obs, obs_events = Tutil.recorder () in
  let book = Reservation_book.create ~obs ~m:10 ~alpha:0.6 () in
  (match Reservation_book.request book ~start:0 ~p:5 ~q:3 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "in-cap request rejected");
  (match Reservation_book.request book ~start:2 ~p:5 ~q:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "saturating request accepted");
  match obs_events () with
  | [ Trace.Resv_accept { resv = 0; start = 0; p = 5; q = 3 }; Trace.Resv_reject { reason; _ } ]
    ->
    Alcotest.(check bool) "reject reason rendered" true (String.length reason > 0)
  | evs -> Alcotest.failf "unexpected admission events (%d)" (List.length evs)

(* --- Chrome export ------------------------------------------------------ *)

let test_chrome_export_wellformed () =
  let subs, reservations = workload ~n:12 () in
  let obs = Trace.sink ignore in
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
  let provs = Hashtbl.create 15 in
  let obs =
    Trace.sink (function
      | Trace.Job_start { job; provenance; _ } -> Hashtbl.replace provs job provenance
      | _ -> ())
  in
  let trace = Simulator.run ~obs ~policy:Policy.easy ~m:8 ~reservations subs in
  let provenance id =
    match Hashtbl.find_opt provs id with
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
            { start_now = Resa_oracles.Jobq_view.(tags_of queue (to_list queue)); wake = -1 });
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
  (* A start must name, once, a tag the queue holds now. [answer ~seen
     live] is the policy's start list, given the tags queued now and those
     queued at earlier decisions. *)
  let refused name answer subs =
    let policy =
      Policy.
        {
          name;
          create =
            (fun ~obs:_ ->
              let seen = ref [] in
              fun ~time:_ ~queue ~free:_ ->
                let live = Resa_oracles.Jobq_view.(tags_of queue (to_list queue)) in
                let start_now = answer ~seen:!seen live in
                seen := !seen @ live;
                { start_now; wake = -1 });
        }
    in
    match Simulator.run ~policy ~m:2 subs with
    | exception Simulator.Policy_error msg ->
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "%s msg has %S" name sub) true (contains ~sub msg))
        [ name; "at t="; "not in the queue" ]
    | _ -> Alcotest.failf "%s start not caught" name
  in
  (* A tag no slot has ever held. *)
  refused "PHANTOM" (fun ~seen:_ _ -> [ 99 ]) [ List.hd subs ];
  (* The tag of a job started at 0 and still running at 1. *)
  refused "DEAD"
    (fun ~seen live -> if seen = [] then live else seen)
    [
      Simulator.{ job = Job.make ~id:0 ~p:10 ~q:1; submit = 0 };
      Simulator.{ job = Job.make ~id:1 ~p:2 ~q:1; submit = 1 };
    ];
  (* A queued tag named twice in one answer. *)
  refused "TWICE" (fun ~seen:_ live -> List.concat_map (fun t -> [ t; t ]) live) [ List.hd subs ]

(* A failed decision leaves no speculation open: the engine rolls its
   checkpoint back — and any the policy opened inside it — before the error
   propagates, whether the policy raised or asked for an impossible
   start. *)
let test_failed_decision_rolls_back () =
  let subs =
    [
      Simulator.{ job = Job.make ~id:0 ~p:2 ~q:1; submit = 0 };
      Simulator.{ job = Job.make ~id:1 ~p:2 ~q:1; submit = 3 };
    ]
  in
  let resolved () =
    Alcotest.(check int) "every checkpoint resolved" (Tutil.counter "timeline.checkpoint")
      (Tutil.counter "timeline.commit" + Tutil.counter "timeline.rollback")
  in
  let raising ~nested =
    Policy.
      {
        name = "RAISER";
        create =
          (fun ~obs:_ ~time ~queue:_ ~free ->
            if time >= 3 then begin
              if nested then ignore (Timeline.checkpoint free);
              Timeline.reserve free ~start:time ~dur:4 ~need:1;
              failwith "planner bug"
            end;
            { start_now = []; wake = 3 });
      }
  in
  List.iter
    (fun nested ->
      Tutil.with_metrics (fun () ->
          match Simulator.run ~policy:(raising ~nested) ~m:2 subs with
          | exception Simulator.Policy_error msg ->
            List.iter
              (fun sub ->
                Alcotest.(check bool) (Printf.sprintf "raise msg has %S" sub) true
                  (contains ~sub msg))
              [ "RAISER"; "t=3"; "planner bug" ];
            resolved ()
          | _ -> Alcotest.fail "policy exception not reported"))
    [ false; true ];
  let phantom =
    Policy.
      {
        name = "PHANTOM";
        create =
          (fun ~obs:_ ~time ~queue:_ ~free ->
            Timeline.reserve free ~start:time ~dur:1 ~need:1;
            { start_now = [ 99 ]; wake = -1 });
      }
  in
  Tutil.with_metrics (fun () ->
      match Simulator.run ~policy:phantom ~m:2 [ List.hd subs ] with
      | exception Simulator.Policy_error _ -> resolved ()
      | _ -> Alcotest.fail "phantom start not caught")

(* --- profiling ----------------------------------------------------------- *)

(* The capacity pre-filter: a queued job wider than the capacity free now
   is skipped without a window query. A queue of 1000 jobs wider than the
   machine's free capacity costs LSRC no [min_on] at all, and EASY only
   the one that finds its head blocked. *)
let test_capacity_prefilter () =
  let queue = Jobq.create () in
  for i = 0 to 999 do
    ignore (Jobq.append queue ~id:i ~estimate:5 ~width:6 ~tag:i : int)
  done;
  List.iter
    (fun ((policy : Policy.t), expect) ->
      let free = Timeline.create 8 in
      Timeline.change free ~lo:0 ~hi:10 ~delta:(-3);
      Tutil.with_metrics (fun () ->
          let decide = policy.create ~obs:Trace.null in
          let act = decide ~time:0 ~queue ~free in
          Alcotest.(check int) (policy.name ^ " starts nothing") 0 (List.length act.start_now);
          Alcotest.(check int) (policy.name ^ " min_on calls") expect
            (Tutil.counter "timeline.min_on")))
    [ (Policy.aggressive, 0); (Policy.easy, 1) ]

let test_prof_counters () =
  Tutil.with_metrics (fun () ->
      let rng = Prng.create ~seed:5 in
      let inst = Resa_gen.Random_inst.alpha_restricted rng ~m:8 ~n:20 ~alpha:0.5 ~pmax:9 () in
      ignore (Resa_algos.Lsrc.run inst);
      let find = Tutil.counter in
      (* Offline LSRC is the LSRC policy on the engine: its decisions and
         starts are the engine's and the policy's counters. *)
      Alcotest.(check bool) "lsrc decisions counted" true (find "policy.decide.LSRC" > 0);
      Alcotest.(check int) "all jobs placed" 20 (find "sim.jobs_started");
      Alcotest.(check bool) "timeline ops counted" true (find "timeline.min_on" > 0);
      (* The simulator opens one speculation scope per decision; every
         checkpoint must be paired with a rollback. *)
      let subs, reservations = workload ~n:10 () in
      ignore (Simulator.run ~policy:Policy.easy ~m:8 ~reservations subs);
      Alcotest.(check bool) "checkpoints counted" true (find "timeline.checkpoint" > 0);
      Alcotest.(check int) "checkpoints all resolved" (find "timeline.checkpoint")
        (find "timeline.rollback" + find "timeline.commit");
      Alcotest.(check bool) "spans recorded" true
        (List.exists (fun s -> s.Prof.name = "simulate/LSRC") (Prof.spans ()));
      Alcotest.(check bool) "engine counts reach the exposition" true
        (contains ~sub:"resa_timeline_checkpoint " (Registry.expose ()));
      Prof.reset ();
      Alcotest.(check int) "reset zeroes counters" 0 (find "policy.decide.LSRC");
      Alcotest.(check (list reject)) "reset drops spans" [] (Prof.spans ()))

let test_prof_disabled_is_noop () =
  Tutil.without_metrics (fun () ->
      Prof.reset ();
      let rng = Prng.create ~seed:5 in
      let inst = Resa_gen.Random_inst.alpha_restricted rng ~m:8 ~n:20 ~alpha:0.5 ~pmax:9 () in
      ignore (Resa_algos.Lsrc.run inst);
      Alcotest.(check int) "disabled counter stays 0" 0 (Tutil.counter "policy.decide.LSRC");
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
  let path = Filename.temp_file "explain" ".txt" in
  Out_channel.with_open_text path (fun oc -> Resa_obs.Explain.render oc (List.to_seq events));
  let out = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "explain mentions %S" sub) true
        (contains ~sub out))
    [ "== FCFS =="; "== EASY =="; "decisions:"; "job 0"; "started" ]

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
    Alcotest.test_case "null sink disabled" `Quick test_null_sink_disabled;
    Alcotest.test_case "sink sees every event in order" `Quick test_sink_sees_every_event;
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
    Alcotest.test_case "failed decisions roll back" `Quick test_failed_decision_rolls_back;
    Alcotest.test_case "capacity pre-filter skips wide jobs" `Quick test_capacity_prefilter;
    Alcotest.test_case "prof counters and spans" `Quick test_prof_counters;
    Alcotest.test_case "prof disabled is a no-op" `Quick test_prof_disabled_is_noop;
    Alcotest.test_case "prof clock never decreases" `Quick test_clock_monotonic;
    Alcotest.test_case "busy accounting at high domain ids" `Quick test_busy_high_domain_ids;
    Alcotest.test_case "explain renders a trace" `Quick test_explain_render;
  ]
