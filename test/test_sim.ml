(* Simulator, policies, metrics, reservation book. *)

open Resa_core
open Resa_sim
module Profile = Resa_oracles.Profile_oracle

(* --- simulator + policies --- *)

let submit_all_at inst t0 =
  List.init (Instance.n_jobs inst) (fun i ->
      Tutil.exact (Instance.job inst i) t0)

(* With everything submitted at 0, each online policy IS its offline
   list algorithm: same starts on reserved alpha-restricted instances. The
   offline side is the Profile oracle, not [Resa_algos]: offline LSRC and
   EASY run these very policies on the engine. *)
let online_offline_pairs =
  let fifo f inst = f inst (Resa_algos.Priority.order Resa_algos.Priority.Fifo inst) in
  [
    ("aggressive", Policy.aggressive, "LSRC", fifo Resa_oracles.Lsrc.run_order_reference);
    ("fcfs", Policy.fcfs, "FCFS", fifo Resa_oracles.Fcfs.run_order_reference);
    ( "conservative",
      Policy.conservative,
      "CONS",
      fifo Resa_oracles.Backfill.conservative_order_reference );
    ("easy", Policy.easy, "EASY", fifo Resa_oracles.Backfill.easy_order_reference);
  ]

let test_online_equals_offline policy offline () =
  let rng = Prng.create ~seed:31 in
  for _ = 1 to 10 do
    let inst = Resa_gen.Random_inst.alpha_restricted rng ~m:8 ~n:10 ~alpha:0.5 ~pmax:6 () in
    if Instance.reservations inst = [||] then Alcotest.fail "instance without reservations";
    let trace =
      Simulator.run ~policy ~m:8
        ~reservations:(Array.to_list (Instance.reservations inst))
        (submit_all_at inst 0)
    in
    let starts_sim = List.map (fun (r : Simulator.record) -> r.start) trace.records in
    Alcotest.(check (list int)) "identical starts"
      (Array.to_list (Schedule.starts (offline inst)))
      starts_sim
  done

let test_fcfs_policy_order () =
  (* FCFS online: narrow job behind wide head must wait. *)
  let jobs = [ (2, 3); (2, 2); (2, 1) ] in
  let inst = Instance.of_sizes ~m:4 jobs in
  let trace = Simulator.run ~policy:Policy.fcfs ~m:4 (submit_all_at inst 0) in
  let starts = List.map (fun (r : Simulator.record) -> r.start) trace.records in
  Alcotest.(check (list int)) "strict order" [ 0; 2; 2 ] starts

let test_arrival_order_respected () =
  (* A job cannot start before it is submitted, whatever the policy. *)
  let subs =
    [
      Tutil.exact (Job.make ~id:0 ~p:2 ~q:1) 0;
      Tutil.exact (Job.make ~id:1 ~p:2 ~q:1) 7;
    ]
  in
  List.iter
    (fun policy ->
      let trace = Simulator.run ~policy ~m:4 subs in
      List.iter
        (fun (r : Simulator.record) ->
          if r.start < r.submit then
            Alcotest.failf "%s started a job before submission" policy.Policy.name)
        trace.records)
    Policy.all

let test_policies_feasible_with_reservations () =
  let rng = Prng.create ~seed:32 in
  let inst = Resa_gen.Random_inst.alpha_restricted rng ~m:12 ~n:15 ~alpha:0.5 ~pmax:8 () in
  let arrivals = Resa_gen.Arrivals.poisson rng ~n:15 ~mean_gap:3.0 in
  let subs =
    List.init 15 (fun i -> Tutil.exact (Instance.job inst i) arrivals.(i))
  in
  List.iter
    (fun policy ->
      let trace =
        Simulator.run ~policy ~m:12
          ~reservations:(Array.to_list (Instance.reservations inst))
          subs
      in
      let off_inst, off_sched = Simulator.to_offline trace in
      match Schedule.validate off_inst off_sched with
      | Ok () -> ()
      | Error v ->
        Alcotest.failf "%s produced an infeasible execution: %a" policy.Policy.name
          Schedule.pp_violation v)
    Policy.all

let test_conservative_policy_plans_hold () =
  (* Deterministic example: plans must not shift when later jobs arrive. *)
  let subs =
    [
      Tutil.exact (Job.make ~id:0 ~p:4 ~q:4) 0;
      Tutil.exact (Job.make ~id:1 ~p:4 ~q:4) 1;
      Tutil.exact (Job.make ~id:2 ~p:1 ~q:1) 2;
    ]
  in
  let trace = Simulator.run ~policy:Policy.conservative ~m:4 subs in
  let starts = List.map (fun (r : Simulator.record) -> r.start) trace.records in
  (* j1 planned at 4; j2 (narrow, short) backfills nowhere before 4 on a full
     machine, so it lands at 8. *)
  Alcotest.(check (list int)) "planned starts" [ 0; 4; 8 ] starts

(* CONS plans each job once and never moves it: the engine consults it at
   every promised instant, so a promise found in the past is a planning
   bug, raised, not replanned. Consulted at 0, CONS promises the job 5,
   after the blocked window; consulted next at 7, it must refuse. *)
let test_conservative_missed_promise () =
  let queue = Jobq.create () in
  ignore (Jobq.append queue ~id:0 ~estimate:2 ~width:4 ~tag:0 : int);
  let free = Timeline.create 4 in
  Timeline.change free ~lo:0 ~hi:5 ~delta:(-1);
  let decide = Policy.conservative.create ~obs:Resa_obs.Trace.null in
  let act = decide ~time:0 ~queue ~free in
  Alcotest.(check (list int)) "nothing starts at 0" [] act.start_now;
  Alcotest.(check int) "wakes at its promise" 5 act.wake;
  Alcotest.check_raises "promise missed" (Failure "CONS: a planned start was missed") (fun () ->
      ignore (decide ~time:7 ~queue ~free : Policy.action))

let test_easy_policy_backfills () =
  let subs =
    [
      Tutil.exact (Job.make ~id:0 ~p:4 ~q:3) 0;
      Tutil.exact (Job.make ~id:1 ~p:4 ~q:4) 0;
      Tutil.exact (Job.make ~id:2 ~p:4 ~q:1) 0;
    ]
  in
  let trace = Simulator.run ~policy:Policy.easy ~m:4 subs in
  let starts = List.map (fun (r : Simulator.record) -> r.start) trace.records in
  (* j2 ends exactly at the head's guaranteed start (4): allowed. *)
  Alcotest.(check (list int)) "backfilled" [ 0; 4; 0 ] starts

let test_policy_error_on_rogue_policy () =
  let rogue =
    Policy.
      {
        name = "ROGUE";
        create =
          (fun ~obs:_ ~time:_ ~queue ~free:_ ->
            (* Start everything unconditionally: must violate capacity. *)
            { start_now = Resa_oracles.Jobq_view.(tags_of queue (to_list queue)); wake = -1 });
      }
  in
  let subs =
    [
      Tutil.exact (Job.make ~id:0 ~p:2 ~q:2) 0;
      Tutil.exact (Job.make ~id:1 ~p:2 ~q:2) 0;
    ]
  in
  match Simulator.run ~policy:rogue ~m:2 subs with
  | exception Simulator.Policy_error _ -> ()
  | _ -> Alcotest.fail "capacity violation not caught"

let test_simulator_rejects_bad_input () =
  let subs = [ Tutil.exact (Job.make ~id:0 ~p:1 ~q:5) 0 ] in
  match Simulator.run ~policy:Policy.fcfs ~m:2 subs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized job accepted"

(* [run] checks each submission as the engine pulls it, with the texts
   [run_stream] uses; an id is only rejected while its first job is live. *)
let test_run_checks_at_the_pull () =
  let sub ?(q = 1) id p submit = Tutil.exact (Job.make ~id ~p ~q) submit in
  let run subs = ignore (Simulator.run ~policy:Policy.fcfs ~m:2 subs : Simulator.trace) in
  Alcotest.check_raises "negative submit" (Invalid_argument "Simulator: negative submit time")
    (fun () -> run [ sub 0 1 3; sub 1 1 (-1) ]);
  Alcotest.check_raises "too wide" (Invalid_argument "Simulator: job wider than the machine")
    (fun () -> run [ sub ~q:3 0 1 0 ]);
  Alcotest.check_raises "duplicate live id" (Invalid_argument "Simulator: duplicate live job id")
    (fun () -> run [ sub 0 5 0; sub 0 5 1 ]);
  let trace = Simulator.run ~policy:Policy.fcfs ~m:2 [ sub 7 2 0; sub 7 3 5 ] in
  Alcotest.(check (list int)) "an id reused after its job finished" [ 0; 5 ]
    (List.map (fun (r : Simulator.record) -> r.start) trace.records)

let prop_all_policies_sound =
  Tutil.qcheck ~count:60 "all policies produce feasible executions"
    QCheck.(pair Tutil.seed_arb Tutil.seed_arb)
    (fun (s1, s2) ->
      let rng = Prng.create ~seed:s1 in
      let inst = Resa_gen.Random_inst.alpha_restricted rng ~m:8 ~n:8 ~alpha:0.5 ~pmax:5 () in
      let arr = Tutil.uniform_arrivals (Prng.create ~seed:s2) ~n:8 ~horizon:20 in
      let subs =
        List.init 8 (fun i -> Tutil.exact (Instance.job inst i) arr.(i))
      in
      List.for_all
        (fun policy ->
          let trace =
            Simulator.run ~policy ~m:8
              ~reservations:(Array.to_list (Instance.reservations inst))
              subs
          in
          let oi, os = Simulator.to_offline trace in
          Schedule.is_feasible oi os
          && List.for_all (fun (r : Simulator.record) -> r.start >= r.submit) trace.records)
        Policy.all)

(* --- metrics --- *)

let test_metrics_values () =
  let subs =
    [
      Tutil.exact (Job.make ~id:0 ~p:4 ~q:2) 0;
      Tutil.exact (Job.make ~id:1 ~p:2 ~q:2) 0;
    ]
  in
  let trace = Simulator.run ~policy:Policy.fcfs ~m:2 subs in
  let s = Metrics.summarize trace in
  Alcotest.(check int) "n" 2 s.n;
  Alcotest.(check int) "makespan" 6 s.makespan;
  (* j0 waits 0; j1 waits 4. *)
  Alcotest.(check (float 1e-9)) "mean wait" 2.0 s.mean_wait;
  Alcotest.(check int) "max wait" 4 s.max_wait;
  (* slowdowns: 1 and (4+2)/2 = 3. *)
  Alcotest.(check (float 1e-9)) "mean slowdown" 2.0 s.mean_slowdown;
  (* utilization: work 12 over 2*6. *)
  Alcotest.(check (float 1e-9)) "utilization" 1.0 s.utilization

let test_metrics_empty () =
  let trace = Simulator.run ~policy:Policy.fcfs ~m:2 [] in
  let s = Metrics.summarize trace in
  Alcotest.(check int) "empty" 0 s.n

let test_bounded_slowdown_bound () =
  (* Very short job with a long wait: bounded slowdown caps the explosion. *)
  let subs =
    [
      Tutil.exact (Job.make ~id:0 ~p:100 ~q:2) 0;
      Tutil.exact (Job.make ~id:1 ~p:1 ~q:2) 0;
    ]
  in
  let trace = Simulator.run ~policy:Policy.fcfs ~m:2 subs in
  let s = Metrics.summarize trace in
  Alcotest.(check bool) "raw slowdown explodes" true (s.mean_slowdown > 50.0);
  Alcotest.(check bool) "bounded slowdown tamed" true (s.mean_bounded_slowdown < 10.0)

(* --- reservation book --- *)

let test_book_accepts_within_cap () =
  let book = Reservation_book.create ~m:10 ~alpha:0.6 () in
  Alcotest.(check int) "cap" 4 (Reservation_book.cap book);
  (match Reservation_book.request book ~start:0 ~p:5 ~q:3 with
  | Ok r -> Alcotest.(check int) "id 0" 0 (Reservation.id r)
  | Error e -> Alcotest.failf "rejected: %a" Reservation_book.pp_rejection e);
  match Reservation_book.request book ~start:10 ~p:5 ~q:4 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "disjoint window rejected: %a" Reservation_book.pp_rejection e

let test_book_rejects_too_wide () =
  let book = Reservation_book.create ~m:10 ~alpha:0.6 () in
  match Reservation_book.request book ~start:0 ~p:1 ~q:5 with
  | Error (Reservation_book.Too_wide { q = 5; cap = 4 }) -> ()
  | _ -> Alcotest.fail "too-wide request accepted"

let test_book_rejects_saturation () =
  let book = Reservation_book.create ~m:10 ~alpha:0.6 () in
  (match Reservation_book.request book ~start:0 ~p:10 ~q:3 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "first rejected");
  match Reservation_book.request book ~start:5 ~p:10 ~q:2 with
  | Error (Reservation_book.Saturated _) -> ()
  | _ -> Alcotest.fail "saturating request accepted"

let test_book_keeps_alpha_restriction () =
  (* Whatever is granted, the resulting instance stays alpha-restricted. *)
  let rng = Prng.create ~seed:77 in
  let book = Reservation_book.create ~m:16 ~alpha:0.5 () in
  for _ = 1 to 50 do
    ignore
      (Reservation_book.request book
         ~start:(Prng.int rng ~bound:40)
         ~p:(Prng.int_incl rng ~lo:1 ~hi:10)
         ~q:(Prng.int_incl rng ~lo:1 ~hi:10))
  done;
  let inst =
    Instance.create_exn ~m:16
      ~jobs:[ Job.make ~id:0 ~p:1 ~q:8 ]
      ~reservations:(Reservation_book.accepted book)
  in
  Alcotest.(check bool) "alpha-restricted" true (Instance.is_alpha_restricted inst ~alpha:0.5)

let test_book_checks_input_first () =
  (* A bad request raises Reservation.make's message and leaves the book as
     it was: no grant, no id spent, no trace event. *)
  let obs, events = Tutil.recorder () in
  let book = Reservation_book.create ~obs ~m:10 ~alpha:0.6 () in
  ignore (Reservation_book.request book ~start:0 ~p:5 ~q:3);
  let before = Reservation_book.blocked_profile book in
  List.iter
    (fun (start, p, q) ->
      let expected =
        match Reservation.make ~id:1 ~start ~p ~q with
        | _ -> Alcotest.fail "Reservation.make accepted a bad reservation"
        | exception Invalid_argument msg -> msg
      in
      (match Reservation_book.request book ~start ~p ~q with
      | _ -> Alcotest.failf "request ~start:%d ~p:%d ~q:%d returned" start p q
      | exception Invalid_argument msg -> Alcotest.(check string) "message" expected msg);
      Alcotest.(check int) "accepted unchanged" 1 (List.length (Reservation_book.accepted book));
      Alcotest.(check bool) "blocked unchanged" true
        (Profile.equal before (Reservation_book.blocked_profile book)))
    [ (-1, 5, 1); (-3, 0, 0); (0, 0, 1); (2, -4, 1); (0, 5, 0); (0, 5, -3); (4, 2, -9) ];
  Alcotest.(check int) "one event" 1 (List.length (events ()));
  match Reservation_book.request book ~start:10 ~p:2 ~q:1 with
  | Ok r -> Alcotest.(check int) "next id" 1 (Reservation.id r)
  | Error e -> Alcotest.failf "rejected: %a" Reservation_book.pp_rejection e

(* The timeline book against the persistent-profile oracle on random request
   streams, rejections of both kinds included: the same results (the
   Saturated instant and blocked count too), texts, events, grants and
   blocked profile after every request. *)
let prop_book_matches_oracle =
  let module O = Resa_oracles.Reservation_book in
  Tutil.qcheck ~count:300 "book = Profile book on random requests" Tutil.seed_arb (fun seed ->
      let rng = Prng.create ~seed in
      let m = Prng.int_incl rng ~lo:1 ~hi:32 in
      let alpha = float_of_int (Prng.int_incl rng ~lo:1 ~hi:10) /. 10.0 in
      let obs, events = Tutil.recorder () and obs', events' = Tutil.recorder () in
      let book = Reservation_book.create ~obs ~m ~alpha () in
      let oracle = O.create ~obs:obs' ~m ~alpha () in
      let cap = Reservation_book.cap book in
      let text = function
        | Ok r -> Format.asprintf "%a" Reservation.pp r
        | Error e -> Format.asprintf "%a" Reservation_book.pp_rejection e
      and text' = function
        | Ok r -> Format.asprintf "%a" Reservation.pp r
        | Error e -> Format.asprintf "%a" O.pp_rejection e
      in
      let same = ref (cap = O.cap oracle) in
      for _ = 1 to Prng.int_incl rng ~lo:1 ~hi:80 do
        let start = Prng.int rng ~bound:60 in
        let p = Prng.int_incl rng ~lo:1 ~hi:20 in
        let q = Prng.int_incl rng ~lo:1 ~hi:(cap + 2) in
        let a = Reservation_book.request book ~start ~p ~q in
        let b = O.request oracle ~start ~p ~q in
        same :=
          !same && a = b
          && text a = text' b
          && Profile.equal (Reservation_book.blocked_profile book) (O.blocked_profile oracle)
      done;
      !same
      && Reservation_book.accepted book = O.accepted oracle
      && events () = events' ())

(* --- walltime estimates --- *)

let test_estimated_equals_exact_when_accurate () =
  let rng = Prng.create ~seed:51 in
  let inst = Resa_gen.Random_inst.cluster_workload rng ~m:8 ~n:12 ~max_runtime:20 in
  let subs = submit_all_at inst 0 in
  let order = Array.init 12 Fun.id in
  List.iter
    (fun policy ->
      (* Arrivals requesting exactly their runtimes start where the engine
         at 0 starts the jobs themselves. Reusing one policy value across
         runs must be safe: [create] scopes the planning state per run. *)
      let a = Simulator.run ~policy ~m:8 subs in
      let b = Simulator.run_order ~policy inst order in
      Alcotest.(check (list int)) "same starts"
        (List.map (fun (r : Simulator.record) -> r.start) a.records)
        (Array.to_list (Schedule.starts b)))
    [ Policy.fcfs; Policy.easy; Policy.conservative; Policy.aggressive ]

let test_early_release_unblocks_follower () =
  (* Job 0 requests 10 but runs 2; job 1 needs the whole machine and starts
     the moment the tail is released. *)
  let subs =
    [
      Simulator.{ job = Job.make ~id:0 ~p:2 ~q:2; submit = 0; estimate = 10 };
      Tutil.exact (Job.make ~id:1 ~p:3 ~q:2) 0;
    ]
  in
  let trace = Simulator.run ~policy:Policy.fcfs ~m:2 subs in
  let starts = List.map (fun (r : Simulator.record) -> r.start) trace.records in
  Alcotest.(check (list int)) "follower starts at the actual completion" [ 0; 2 ] starts

let test_estimates_validated () =
  let subs = [ Simulator.{ job = Job.make ~id:0 ~p:5 ~q:1; submit = 0; estimate = 3 } ] in
  Alcotest.check_raises "estimate below runtime"
    (Invalid_argument "Simulator: estimate below the actual runtime") (fun () ->
      ignore (Simulator.run ~policy:Policy.fcfs ~m:2 subs))

let prop_estimated_executions_feasible =
  Tutil.qcheck ~count:60 "all policies stay feasible under overestimates"
    QCheck.(pair Tutil.seed_arb Tutil.seed_arb)
    (fun (s1, s2) ->
      let rng = Prng.create ~seed:s1 in
      let inst = Resa_gen.Random_inst.cluster_workload rng ~m:8 ~n:10 ~max_runtime:12 in
      let erng = Prng.create ~seed:s2 in
      let estimates =
        Array.init 10 (fun i ->
            Job.p (Instance.job inst i) * Prng.int_incl erng ~lo:1 ~hi:4)
      in
      let arr = Tutil.uniform_arrivals erng ~n:10 ~horizon:25 in
      let subs =
        List.init 10 (fun i ->
            Simulator.{ job = Instance.job inst i; submit = arr.(i); estimate = estimates.(i) })
      in
      List.for_all
        (fun policy ->
          let trace = Simulator.run ~policy ~m:8 subs in
          let oi, os = Simulator.to_offline trace in
          Schedule.is_feasible oi os
          && List.for_all (fun (r : Simulator.record) -> r.start >= r.submit) trace.records)
        Policy.all)

(* After its first [None] the source must not be called again: on a
   reservation-dense instance every reservation edge is a decision instant
   after the last arrival, and each used to re-poll it. *)
let test_exhausted_source_not_repolled () =
  let rng = Prng.create ~seed:57 in
  let inst = Resa_gen.Random_inst.alpha_restricted rng ~m:8 ~n:30 ~alpha:0.5 ~pmax:6 () in
  let reservations = Array.to_list (Instance.reservations inst) in
  if List.length reservations < 2 then Alcotest.fail "instance without reservations";
  let subs = submit_all_at inst 0 in
  List.iter
    (fun (policy : Policy.t) ->
      let calls = ref 0 and rest = ref subs in
      let next () =
        incr calls;
        match !rest with
        | [] -> None
        | a :: tl ->
          rest := tl;
          Some a
      in
      let obs_s, obs_s_events = Tutil.recorder () in
      let stats = Simulator.run_stream ~obs:obs_s ~policy ~m:8 ~reservations next in
      Alcotest.(check int) (policy.name ^ ": jobs") 30 stats.jobs;
      Alcotest.(check int) (policy.name ^ ": source calls") 31 !calls;
      let obs_b, obs_b_events = Tutil.recorder () in
      ignore (Simulator.run ~obs:obs_b ~policy ~m:8 ~reservations subs : Simulator.trace);
      let jsonl events = Tutil.trace_text (events ()) in
      Alcotest.(check string) (policy.name ^ ": trace") (jsonl obs_b_events)
        (jsonl obs_s_events))
    Policy.all

let suite =
  List.map
    (fun (online, policy, name, offline) ->
      Alcotest.test_case
        (Printf.sprintf "%s = offline %s at t=0" online name)
        `Quick
        (test_online_equals_offline policy offline))
    online_offline_pairs
  @ [
    Alcotest.test_case "FCFS policy blocks behind head" `Quick test_fcfs_policy_order;
    Alcotest.test_case "no job before its submission" `Quick test_arrival_order_respected;
    Alcotest.test_case "all policies feasible with reservations" `Quick test_policies_feasible_with_reservations;
    Alcotest.test_case "conservative plans are stable" `Quick test_conservative_policy_plans_hold;
    Alcotest.test_case "conservative refuses a missed promise" `Quick
      test_conservative_missed_promise;
    Alcotest.test_case "EASY policy backfills" `Quick test_easy_policy_backfills;
    Alcotest.test_case "rogue policies are caught" `Quick test_policy_error_on_rogue_policy;
    Alcotest.test_case "bad submissions rejected" `Quick test_simulator_rejects_bad_input;
    Alcotest.test_case "exhausted source is never re-polled" `Quick test_exhausted_source_not_repolled;
    prop_all_policies_sound;
    Alcotest.test_case "accurate estimates change nothing" `Quick test_estimated_equals_exact_when_accurate;
    Alcotest.test_case "early release unblocks followers" `Quick test_early_release_unblocks_follower;
    Alcotest.test_case "estimates are validated" `Quick test_estimates_validated;
    Alcotest.test_case "run checks each submission at the pull" `Quick test_run_checks_at_the_pull;
    prop_estimated_executions_feasible;
    Alcotest.test_case "metrics on a hand example" `Quick test_metrics_values;
    Alcotest.test_case "metrics on empty trace" `Quick test_metrics_empty;
    Alcotest.test_case "bounded slowdown" `Quick test_bounded_slowdown_bound;
    Alcotest.test_case "book accepts within cap" `Quick test_book_accepts_within_cap;
    Alcotest.test_case "book rejects too-wide" `Quick test_book_rejects_too_wide;
    Alcotest.test_case "book rejects saturation" `Quick test_book_rejects_saturation;
    Alcotest.test_case "book preserves alpha-restriction" `Quick test_book_keeps_alpha_restriction;
    Alcotest.test_case "book checks its input first" `Quick test_book_checks_input_first;
    prop_book_matches_oracle;
  ]
