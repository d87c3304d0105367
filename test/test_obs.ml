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
    List.init n (fun i -> Tutil.exact (Instance.job inst i) arr.(i))
  in
  (subs, Array.to_list (Instance.reservations inst))

(* Serialise a traced run to its canonical JSONL text (run-tagged). The
   simulator hands its tracer to the policy's [create], so policy events
   land in the same sink without extra plumbing. *)
let event_stream ~policy ~name ~m ~reservations subs =
  let obs, obs_events = Tutil.recorder () in
  let trace = Simulator.run ~obs ~policy ~m ~reservations subs in
  (trace, Tutil.trace_text ~run:name (obs_events ()))

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
      let line = Tutil.trace_line ~run:"r1" ev in
      match Trace.parse_line line with
      | Ok (run, ev') ->
        Alcotest.(check (option string)) "run tag" (Some "r1") run;
        Alcotest.(check bool) (Printf.sprintf "round-trip %s" line) true (ev = ev')
      | Error e -> Alcotest.failf "parse %s: %s" line e)
    all_constructors;
  (* Untagged lines round-trip too. *)
  let line = Tutil.trace_line (List.hd all_constructors) in
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
  (* Each name is what a start's line carries, and it parses back. *)
  List.iter
    (fun p ->
      let ev = Trace.Job_start { time = 1; job = 2; wait = 0; provenance = p } in
      let line = Tutil.trace_line ev in
      let name = "\"" ^ Trace.provenance_to_string p ^ "\"" in
      Alcotest.(check bool) ("line names " ^ name) true
        (Tutil.contains ~sub:name line);
      match Trace.parse_line line with
      | Ok (_, ev') -> Alcotest.(check bool) "provenance round-trip" true (ev = ev')
      | Error e -> Alcotest.fail e)
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
      Tutil.exact (Job.make ~id:0 ~p:4 ~q:3) 0;
      Tutil.exact (Job.make ~id:1 ~p:4 ~q:4) 0;
      Tutil.exact (Job.make ~id:2 ~p:4 ~q:1) 0;
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
  let subs = [ Tutil.exact (Job.make ~id:0 ~p:3 ~q:2) 0 ] in
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
  let doc = Tutil.written (fun oc -> Resa_obs.Chrome.write oc slices) in
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
      Tutil.exact (Job.make ~id:0 ~p:2 ~q:2) 0;
      Tutil.exact (Job.make ~id:1 ~p:2 ~q:2) 0;
    ]
  in
  (match Simulator.run ~policy:overcommit ~m:2 subs with
  | exception Simulator.Policy_error msg ->
    List.iter
      (fun sub ->
        Alcotest.(check bool) (Printf.sprintf "capacity msg has %S" sub) true
          (Tutil.contains ~sub msg))
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
              fun ~time ~queue ~free ->
                let jobs = Resa_oracles.Jobq_view.to_list queue in
                let live = Resa_oracles.Jobq_view.tags_of queue jobs in
                (* Reserve every queued job and name its tag. *)
                let start () = Resa_oracles.Jobq_view.start queue free ~time jobs in
                let start_now = answer ~seen:!seen ~start live in
                seen := !seen @ live;
                { start_now; wake = -1 });
        }
    in
    match Simulator.run ~policy ~m:2 subs with
    | exception Simulator.Policy_error msg ->
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "%s msg has %S" name sub) true (Tutil.contains ~sub msg))
        [ name; "at t="; "not in the queue" ]
    | _ -> Alcotest.failf "%s start not caught" name
  in
  (* A tag no slot has ever held. *)
  refused "PHANTOM" (fun ~seen:_ ~start:_ _ -> [ 99 ]) [ List.hd subs ];
  (* The tag of a job started at 0 and still running at 1. *)
  refused "DEAD"
    (fun ~seen ~start _ -> if seen = [] then start () else seen)
    [
      Tutil.exact (Job.make ~id:0 ~p:10 ~q:1) 0;
      Tutil.exact (Job.make ~id:1 ~p:2 ~q:1) 1;
    ];
  (* A queued tag named twice in one answer. *)
  refused "TWICE"
    (fun ~seen:_ ~start:_ live -> List.concat_map (fun t -> [ t; t ]) live)
    [ List.hd subs ]

(* A failed decision leaves no speculation open: the engine rolls its
   checkpoint back — and any the policy opened inside it — before the error
   propagates, whether the policy raised or asked for an impossible
   start. *)
let test_failed_decision_rolls_back () =
  let subs =
    [
      Tutil.exact (Job.make ~id:0 ~p:2 ~q:1) 0;
      Tutil.exact (Job.make ~id:1 ~p:2 ~q:1) 3;
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
              ignore (Timeline.reserve free ~start:time ~dur:4 ~need:1 : bool);
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
                  (Tutil.contains ~sub msg))
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
            ignore (Timeline.reserve free ~start:time ~dur:1 ~need:1 : bool);
            { start_now = [ 99 ]; wake = -1 });
      }
  in
  Tutil.with_metrics (fun () ->
      match Simulator.run ~policy:phantom ~m:2 [ List.hd subs ] with
      | exception Simulator.Policy_error _ -> resolved ()
      | _ -> Alcotest.fail "phantom start not caught")

(* The engine commits a decision only when its log is exactly the starts'
   checked reservations, in start order, with every scope the policy
   opened resolved. A policy that marks its starts with [Timeline.change]
   — same windows, same widths, and here they fit — is refused, as is one
   that leaves an extra change behind or a checkpoint open; each failure
   rolls the decision back. *)
let test_commit_rule_refuses_unproven_logs () =
  let subs =
    [
      Tutil.exact (Job.make ~id:0 ~p:2 ~q:1) 0;
      Tutil.exact (Job.make ~id:1 ~p:3 ~q:1) 0;
    ]
  in
  let refused name body expect =
    let policy =
      Policy.
        {
          name;
          create =
            (fun ~obs:_ ~time ~queue ~free ->
              let jobs = Resa_oracles.Jobq_view.to_list queue in
              body ~time ~free jobs;
              { start_now = Resa_oracles.Jobq_view.tags_of queue jobs; wake = -1 });
        }
    in
    Tutil.with_metrics (fun () ->
        match Simulator.run ~policy ~m:4 subs with
        | exception Simulator.Policy_error msg ->
          List.iter
            (fun sub ->
              Alcotest.(check bool) (Printf.sprintf "%s msg has %S" name sub) true
                (Tutil.contains ~sub msg))
            (name :: "at t=0" :: expect);
          Alcotest.(check int) (name ^ ": every checkpoint resolved")
            (Tutil.counter "timeline.checkpoint")
            (Tutil.counter "timeline.commit" + Tutil.counter "timeline.rollback")
        | _ -> Alcotest.failf "%s: decision committed" name)
  in
  let reserve free ~time j =
    Alcotest.(check bool) "window fits" true
      (Timeline.reserve free ~start:time ~dur:(Job.p j) ~need:(Job.q j))
  in
  refused "MARKER"
    (fun ~time ~free ->
      List.iter (fun j ->
          Timeline.change free ~lo:time ~hi:(time + Job.p j) ~delta:(-Job.q j)))
    [ "without reserving it"; "window [0,2)"; "needs 1" ];
  refused "EXTRA"
    (fun ~time ~free jobs ->
      List.iter (reserve free ~time) jobs;
      Timeline.change free ~lo:(time + 10) ~hi:(time + 11) ~delta:1)
    [ "changes beyond its 2 reservations" ];
  refused "OPEN"
    (fun ~time ~free jobs ->
      ignore (Timeline.checkpoint free : Timeline.mark);
      List.iter (reserve free ~time) jobs)
    [ "left a checkpoint open" ]

(* Random policies against the commit rule. Each decision runs a random
   program on the live timeline: reservations of queued jobs (named as
   starts), changes, and nested checkpoints, each committed or rolled back
   with the starts made inside it. A clean policy ([fault < 0]) then
   reserves and starts every queued job that still fits, and its runs must
   complete. A rogue one now and then commits one kind of fault: [0] a
   change left in the log, [1] a reservation of a later window, [2] a
   start not named, [3] the starts of a rolled-back scope kept, [4] a
   resolved mark used again, [5] scopes left open, [6] a stale, repeated
   or unknown tag, or [7] any of these. Either way the run fails with [Policy_error] or yields a
   feasible schedule, and every checkpoint opened is resolved. *)
let random_policy ~fault seed =
  let create ~obs:_ =
    let rng = Prng.create ~seed in
    let coin k = Prng.int rng ~bound:k = 0 in
    let slip k = (fault = k || fault = 7) && coin 3 in
    let last = ref [] in
    fun ~time ~queue ~free ->
      let jobs = Array.of_list (Resa_oracles.Jobq_view.to_list queue) in
      let tags = Array.of_list (Resa_oracles.Jobq_view.tags_of queue (Array.to_list jobs)) in
      let n = Array.length jobs in
      (* Starts newest first; open scopes innermost first, each with the
         number of starts made before it and whether it holds a change. *)
      let starts = ref [] and scopes = ref [] and resolved = ref [] in
      let reserve i ~start =
        let j = jobs.(i) in
        Timeline.reserve free ~start ~dur:(Job.p j) ~need:(Job.q j)
      in
      let try_start i =
        if (not (List.mem tags.(i) !starts)) && reserve i ~start:time && not (slip 2) then
          starts := tags.(i) :: !starts
      in
      let resolve () =
        match !scopes with
        | [] -> ()
        | (m, before, dirty) :: rest ->
          scopes := rest;
          resolved := m :: !resolved;
          if (dirty && not (slip 0)) || coin 3 then begin
            Timeline.rollback free m;
            if not (slip 3) then
              starts := List.filteri (fun k _ -> k >= List.length !starts - before) !starts
          end
          else begin
            Timeline.commit free m;
            match rest with
            | (m', b', _) :: rest' when dirty -> scopes := (m', b', true) :: rest'
            | _ -> ()
          end
      in
      for _ = 1 to Prng.int rng ~bound:8 do
        match Prng.int rng ~bound:6 with
        | (0 | 1) when n > 0 ->
          let i = Prng.int rng ~bound:n in
          if slip 1 then ignore (reserve i ~start:(time + 1 + Prng.int rng ~bound:3) : bool)
          else try_start i
        | 2 when !scopes <> [] || slip 0 ->
          let lo = time + Prng.int rng ~bound:2 in
          Timeline.change free ~lo ~hi:(lo + 1 + Prng.int rng ~bound:4)
            ~delta:(Prng.int_incl rng ~lo:(-1) ~hi:3);
          (match !scopes with (m, b, _) :: rest -> scopes := (m, b, true) :: rest | [] -> ())
        | 3 when List.length !scopes < 3 ->
          scopes := (Timeline.checkpoint free, List.length !starts, false) :: !scopes
        | 4 -> resolve ()
        | 5 when !resolved <> [] && slip 4 ->
          let m = List.nth !resolved (Prng.int rng ~bound:(List.length !resolved)) in
          if coin 2 then Timeline.commit free m else Timeline.rollback free m
        | _ -> ()
      done;
      if not (slip 5) then
        while !scopes <> [] do
          resolve ()
        done;
      for i = 0 to n - 1 do
        try_start i
      done;
      (* Capacity that is not there, left for later decisions to use. *)
      if slip 0 then
        Timeline.change free ~lo:time ~hi:(time + 1 + Prng.int rng ~bound:8)
          ~delta:(1 + Prng.int rng ~bound:3);
      let start_now = List.rev !starts in
      let start_now =
        if not (slip 6) then start_now
        else
          match Prng.int rng ~bound:3 with
          | 0 -> start_now @ [ 1_000_000 ]
          | 1 -> start_now @ start_now
          | _ -> !last @ start_now
      in
      last := start_now;
      { Policy.start_now; wake = (if coin 3 then time + 1 + Prng.int rng ~bound:4 else -1) }
  in
  { Policy.name = (if fault < 0 then "CLEAN" else "ROGUE"); create }

let prop_random_policies =
  Tutil.qcheck ~count:500 "random policies refused or feasible" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      let rng = Prng.create ~seed:(seed + 1) in
      let submits =
        List.sort compare (List.init (Instance.n_jobs inst) (fun _ -> Prng.int rng ~bound:12))
      in
      let subs =
        List.mapi (fun i submit -> Tutil.exact (Instance.job inst i) submit) submits
      in
      let reservations = Array.to_list (Instance.reservations inst) in
      (* Half the runs clean, the others spread over the faults. *)
      let fault = if seed mod 2 = 0 then -1 else seed / 2 mod 8 in
      Tutil.with_metrics (fun () ->
          let outcome =
            match
              Simulator.run ~policy:(random_policy ~fault seed) ~m:(Instance.m inst) ~reservations
                subs
            with
            | exception Simulator.Policy_error msg ->
              if fault < 0 then QCheck.Test.fail_reportf "clean policy refused: %s" msg;
              true
            | trace -> (
              let inst, sched = Simulator.to_offline trace in
              match Schedule.validate inst sched with
              | Ok () -> true
              | Error v -> QCheck.Test.fail_reportf "infeasible: %a" Schedule.pp_violation v)
          in
          outcome
          && Tutil.counter "timeline.checkpoint"
             = Tutil.counter "timeline.commit" + Tutil.counter "timeline.rollback"))

(* --- profiling ----------------------------------------------------------- *)

(* The capacity pre-filter: a queued job wider than the capacity free now
   is skipped without a window query. A queue of 1000 jobs wider than the
   machine's free capacity costs LSRC no window query at all, and EASY
   only the one walk that finds its head blocked and its guaranteed
   start: one refused reservation, counted as one [earliest_fit]. *)
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
          Alcotest.(check int) (policy.name ^ " window queries") expect
            (Tutil.counter "timeline.min_on" + Tutil.counter "timeline.earliest_fit");
          Alcotest.(check int) (policy.name ^ " refused reservations") expect
            (Tutil.counter "timeline.reserve_failed")))
    [ (Policy.aggressive, 0); (Policy.easy, 1) ]

(* FCFS answers a consultation with nothing new to decide without a walk.
   The head (6 wide) is blocked until 10 on 4 free processors. Arrivals
   that meet it, with no change to the timeline in between, cost no
   window query; a completion in between (one processor back on [3, 10))
   costs one walk again, and the head still waits for 10. Each answer is
   the one a fresh FCFS gives on the same state. *)
let test_fcfs_skips_unchanged () =
  let queue = Jobq.create () in
  let free = Timeline.create 8 in
  Timeline.change free ~lo:0 ~hi:10 ~delta:(-4);
  let arrive i width = ignore (Jobq.append queue ~id:i ~estimate:5 ~width ~tag:i : int) in
  arrive 0 6;
  Tutil.with_metrics (fun () ->
      let decide = Policy.fcfs.create ~obs:Trace.null in
      let walks () = Tutil.counter "timeline.min_on" + Tutil.counter "timeline.earliest_fit" in
      let consult name ~time ~walked =
        let before = walks () in
        let act = decide ~time ~queue ~free in
        let starts = act.start_now and wake = act.wake in
        Alcotest.(check int) (name ^ ": walks") walked (walks () - before);
        let fresh = Policy.fcfs.create ~obs:Trace.null ~time ~queue ~free in
        Alcotest.(check (list int)) (name ^ ": starts") fresh.start_now starts;
        Alcotest.(check int) (name ^ ": wake") fresh.wake wake;
        Alcotest.(check int) (name ^ ": waits for 10") 10 wake
      in
      consult "first decision" ~time:0 ~walked:1;
      arrive 1 1;
      consult "an arrival" ~time:1 ~walked:0;
      arrive 2 2;
      consult "another arrival" ~time:2 ~walked:0;
      Timeline.change free ~lo:3 ~hi:10 ~delta:1;
      consult "after a completion" ~time:3 ~walked:1;
      arrive 3 1;
      consult "an arrival after it" ~time:4 ~walked:0)

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
        (Tutil.contains ~sub:"resa_timeline_checkpoint " (Registry.expose ()));
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
        (Tutil.contains ~sub out))
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
    Alcotest.test_case "FCFS skips a decision with nothing new" `Quick test_fcfs_skips_unchanged;
    Alcotest.test_case "prof counters and spans" `Quick test_prof_counters;
    Alcotest.test_case "prof disabled is a no-op" `Quick test_prof_disabled_is_noop;
    Alcotest.test_case "prof clock never decreases" `Quick test_clock_monotonic;
    Alcotest.test_case "busy accounting at high domain ids" `Quick test_busy_high_domain_ids;
    Alcotest.test_case "explain renders a trace" `Quick test_explain_render;
    Alcotest.test_case "commit rule refuses unproven logs" `Quick
      test_commit_rule_refuses_unproven_logs;
    prop_random_policies;
  ]
