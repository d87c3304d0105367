(* The reservation-edge sweep against the builder it replaced: a tuple
   sort into [Profile.of_events], negated and shifted by m. The oracle is
   kept here, with [Instance.create]'s former validation, so every consumer
   of the sweep — instances, the engine's timeline and its wake-ups, the
   streaming utilization — is held to the old path. *)

open Resa_core
open Resa_sim

let oracle_unavail reservations =
  Profile.of_events ~base:0
    (List.concat_map
       (fun r -> [ (Reservation.start r, Reservation.q r); (Reservation.stop r, -Reservation.q r) ])
       reservations)

let oracle_avail ~m reservations = Profile.add_const (Profile.neg (oracle_unavail reservations)) m

(* [Instance.create]'s checks before the sweep, in their order. *)
let oracle_error ~m ~jobs ~reservations =
  let distinct ids =
    let sorted = List.sort Int.compare ids in
    let rec ok = function a :: (b :: _ as rest) -> a <> b && ok rest | _ -> true in
    ok sorted
  in
  if m < 1 then Some "Instance.create: m must be >= 1"
  else if not (distinct (List.map Job.id jobs)) then Some "Instance.create: duplicate job ids"
  else if not (distinct (List.map Reservation.id reservations)) then
    Some "Instance.create: duplicate reservation ids"
  else
    match List.find_opt (fun j -> Job.q j > m) jobs with
    | Some j ->
      Some (Format.asprintf "Instance.create: %a requires more than m=%d processors" Job.pp j m)
    | None ->
      if Profile.max_value (oracle_unavail reservations) > m then
        Some "Instance.create: reservations exceed machine capacity"
      else None

(* A random reservation set on m in [1, 12], dense in coincident edges:
   starts on a coarse grid from 0, and with probability 1/4 each a
   back-to-back twin of the previous reservation (same q, starting where
   it stops: the shared edge normalises away) or a duplicate id. Capacity
   may be exceeded; [fit] draws q from what is left, so most sets fit. *)
let resv_case ?(fit = false) ?(dup_ids = false) seed =
  let rng = Prng.create ~seed in
  let m = if Prng.int rng ~bound:5 = 0 then 1 else Prng.int_incl rng ~lo:1 ~hi:12 in
  let n = Prng.int rng ~bound:10 in
  let used = ref (Profile.constant 0) in
  let acc = ref [] in
  for i = 0 to n - 1 do
    let start, p, q =
      match !acc with
      | prev :: _ when Prng.int rng ~bound:4 = 0 ->
        (Reservation.stop prev, Prng.int_incl rng ~lo:1 ~hi:6, Reservation.q prev)
      | _ -> (2 * Prng.int rng ~bound:8, Prng.int_incl rng ~lo:1 ~hi:9, Prng.int_incl rng ~lo:1 ~hi:m)
    in
    let q =
      if fit then min q (m - Profile.max_on !used ~lo:start ~hi:(start + p)) else q
    in
    if q >= 1 then begin
      used := Profile.change !used ~lo:start ~hi:(start + p) ~delta:q;
      let id = if dup_ids && i > 0 && Prng.int rng ~bound:4 = 0 then i - 1 else i in
      acc := Reservation.make ~id ~start ~p ~q :: !acc
    end
  done;
  (m, List.rev !acc)

let raised f = match f () with _ -> None | exception Invalid_argument msg -> Some msg

let sweep_steps (s : Resv_sweep.t) = List.init s.len (fun i -> (s.times.(i), s.free.(i)))

(* Sweep, instance profiles and error messages against the oracle. *)
let prop_profiles seed =
  let m, reservations = resv_case seed in
  let want = oracle_error ~m ~jobs:[] ~reservations in
  let got = raised (fun () -> Instance.create_exn ~m ~jobs:[] ~reservations) in
  if got <> want then
    QCheck.Test.fail_reportf "Instance.create: %s, oracle %s"
      (Option.value got ~default:"ok") (Option.value want ~default:"ok");
  (match want with
  | Some _ -> ()
  | None ->
    let avail = oracle_avail ~m reservations in
    let s = Resv_sweep.run ~m reservations in
    if Array.sub s.times 0 s.len <> Profile.breakpoints avail then
      QCheck.Test.fail_report "breakpoints differ";
    if sweep_steps s <> Profile.to_steps avail then QCheck.Test.fail_report "capacities differ";
    let inst = Instance.create_exn ~m ~jobs:[] ~reservations in
    if Profile.to_steps (Instance.availability inst) <> Profile.to_steps avail then
      QCheck.Test.fail_report "Instance.availability differs";
    if Profile.to_steps (Instance.unavailability inst)
       <> Profile.to_steps (oracle_unavail reservations)
    then QCheck.Test.fail_report "Instance.unavailability differs");
  true

(* A policy holding [job]: it starts it at instant [start_at] and nothing
   before, and records each decision's instant and the engine's own
   timeline (checked, exported). Calls with an empty queue are counted:
   the engine must answer those instants itself. *)
let probe ~job ~start_at =
  let seen = ref [] and empty_calls = ref 0 in
  let policy =
    Policy.
      {
        name = "probe";
        create =
          (fun ~obs:_ ->
            let action = { start_now = []; wake = -1 } in
            fun ~time ~queue ~free ->
              if Jobq.length queue = 0 then incr empty_calls;
              Timeline.check free;
              seen := (time, Timeline.to_profile free) :: !seen;
              action.start_now <-
                (if time = start_at then Resa_oracles.Jobq_view.tags_of queue [ job ] else []);
              action);
      }
  in
  (policy, seen, empty_calls)

(* The engine decides exactly at the availability breakpoints. With no
   jobs every decision instant has an empty queue: a traced run writes one
   [Decision] per breakpoint, and the policy is never consulted. With one
   1-wide, 1-long job submitted at 0 and held until the last breakpoint,
   the policy is consulted at every breakpoint, against a timeline equal
   to the oracle's profile, and never with an empty queue. *)
let prop_engine seed =
  let m, reservations = resv_case ~fit:true seed in
  let avail = oracle_avail ~m reservations in
  let bps = Profile.breakpoints avail in
  let last = bps.(Array.length bps - 1) in
  let job = Job.make ~id:0 ~p:1 ~q:1 in
  let policy, seen, empty_calls = probe ~job ~start_at:last in
  let obs = Resa_obs.Trace.buffer () in
  ignore
    (Simulator.run_stream ~obs ~policy ~m ~reservations (fun () -> None)
      : Simulator.stream_stats);
  if !seen <> [] then QCheck.Test.fail_report "a policy was consulted with no job";
  let decisions =
    List.map
      (function
        | Resa_obs.Trace.Decision { time; policy = "probe"; queued = 0; started = 0; wake = None } ->
          time
        | e -> QCheck.Test.fail_reportf "unexpected event %s" (Resa_obs.Trace.to_json e))
      (Resa_obs.Trace.contents obs)
  in
  if Array.of_list decisions <> bps then
    QCheck.Test.fail_report "traced decision instants differ from the breakpoints";
  let fed = ref false in
  let stats =
    Simulator.run_stream ~policy ~m ~reservations (fun () ->
        if !fed then None
        else begin
          fed := true;
          Some Simulator.{ job; submit = 0; estimate = 1 }
        end)
  in
  if !empty_calls > 0 then QCheck.Test.fail_report "the policy was consulted with an empty queue";
  if stats.makespan <> last + 1 then
    QCheck.Test.fail_reportf "the held job finished at %d, not %d" stats.makespan (last + 1);
  let seen = List.rev !seen in
  if Array.of_list (List.map fst seen) <> bps then
    QCheck.Test.fail_reportf "decision instants differ from the breakpoints";
  List.iter
    (fun (t, p) ->
      if Profile.to_steps p <> Profile.to_steps avail then
        QCheck.Test.fail_reportf "engine timeline differs at t=%d" t)
    seen;
  true

(* Errors: one message from the instance, the streaming engine and the
   batch engine, the oracle's. *)
let prop_errors seed =
  let m, reservations = resv_case ~dup_ids:true seed in
  let m = if seed mod 7 = 0 then 0 else m in
  let job = Job.make ~id:0 ~p:1 ~q:1 in
  let want = oracle_error ~m ~jobs:[ job ] ~reservations in
  let policy = Policy.fcfs in
  let results =
    [
      ("Instance.create", raised (fun () -> Instance.create_exn ~m ~jobs:[ job ] ~reservations));
      ( "run_stream",
        raised (fun () ->
            let fed = ref false in
            Simulator.run_stream ~policy ~m ~reservations (fun () ->
                if !fed then None
                else begin
                  fed := true;
                  Some Simulator.{ job; submit = 0; estimate = 1 }
                end)) );
      ( "Simulator.run",
        raised (fun () -> Simulator.run ~policy ~m ~reservations [ Simulator.{ job; submit = 0 } ])
      );
    ]
  in
  List.iter
    (fun (who, got) ->
      if got <> want then
        QCheck.Test.fail_reportf "%s: %s, oracle %s" who (Option.value got ~default:"ok")
          (Option.value want ~default:"ok"))
    results;
  true

(* Streaming utilization against work over the oracle's integral. *)
let check_utilization name ~m ~reservations records =
  let ms = Metrics.Stream.create ~m ~reservations () in
  List.iter (Metrics.Stream.observe ms) records;
  let got = (Metrics.Stream.summary ms).utilization in
  let work, cmax =
    List.fold_left
      (fun (w, c) (r : Simulator.record) ->
        (w + (Job.p r.job * Job.q r.job), max c (r.start + Job.p r.job)))
      (0, 0) records
  in
  let area = Profile.integral_on (oracle_avail ~m reservations) ~lo:0 ~hi:cmax in
  let want = if area = 0 then 1.0 else float_of_int work /. float_of_int area in
  if Int64.bits_of_float got <> Int64.bits_of_float want then
    Alcotest.failf "%s: utilization %h, oracle %h" name got want

let record ~id ~p ~q start = Simulator.{ job = Job.make ~id ~p ~q; submit = 0; start }

let prop_utilization seed =
  let m, reservations = resv_case ~fit:true seed in
  let rng = Prng.create ~seed:(seed + 1) in
  let records =
    List.init
      (1 + Prng.int rng ~bound:6)
      (fun id ->
        record ~id ~p:(Prng.int_incl rng ~lo:1 ~hi:12) ~q:1 (Prng.int rng ~bound:20))
  in
  check_utilization (Printf.sprintf "seed %d" seed) ~m ~reservations records;
  true

let test_utilization_cases () =
  let r ~id ~start ~p ~q = Reservation.make ~id ~start ~p ~q in
  let jobs = [ record ~id:0 ~p:5 ~q:2 0; record ~id:1 ~p:3 ~q:1 4 ] in
  (* Makespan 7. *)
  check_utilization "no reservations" ~m:4 ~reservations:[] jobs;
  check_utilization "makespan inside a reservation" ~m:4
    ~reservations:[ r ~id:0 ~start:5 ~p:10 ~q:2; r ~id:1 ~start:0 ~p:3 ~q:1 ]
    jobs;
  check_utilization "reservations after the makespan" ~m:4
    ~reservations:[ r ~id:0 ~start:7 ~p:4 ~q:3; r ~id:1 ~start:100 ~p:1 ~q:4 ]
    jobs;
  check_utilization "makespan at a reservation's start" ~m:4
    ~reservations:[ r ~id:0 ~start:0 ~p:7 ~q:1; r ~id:1 ~start:7 ~p:2 ~q:4 ]
    jobs

let test_edge_cases () =
  let r ~id ~start ~p ~q = Reservation.make ~id ~start ~p ~q in
  let steps ~m rs = sweep_steps (Resv_sweep.run ~m rs) in
  let check name ~m rs =
    Alcotest.(check (list (pair int int))) name (Profile.to_steps (oracle_avail ~m rs)) (steps ~m rs)
  in
  check "empty set" ~m:3 [];
  check "m = 1, whole machine" ~m:1 [ r ~id:0 ~start:0 ~p:4 ~q:1 ];
  check "back to back, equal q" ~m:5 [ r ~id:0 ~start:2 ~p:3 ~q:2; r ~id:1 ~start:5 ~p:4 ~q:2 ];
  check "coincident edges cancel" ~m:6
    [ r ~id:0 ~start:1 ~p:3 ~q:2; r ~id:1 ~start:4 ~p:1 ~q:1; r ~id:2 ~start:4 ~p:6 ~q:1 ];
  (match Instance.create ~m:64 ~jobs:[] ~reservations:[ r ~id:0 ~start:(max_int lsr 3) ~p:1 ~q:64 ] with
  | Error "Instance.create: reservation ends beyond the representable horizon" -> ()
  | _ -> Alcotest.fail "a reservation past the packed time range must be rejected");
  Alcotest.(check (list (pair int int)))
    "back to back collapse to one segment" [ (0, 5); (2, 3); (9, 5) ]
    (steps ~m:5 [ r ~id:0 ~start:2 ~p:3 ~q:2; r ~id:1 ~start:5 ~p:4 ~q:2 ])

let suite =
  [
    Tutil.qcheck ~count:500 "sweep and Instance profiles equal the of_events oracle" Tutil.seed_arb
      prop_profiles;
    Tutil.qcheck ~count:300 "engine timeline and wake-ups equal the oracle" Tutil.seed_arb
      prop_engine;
    Tutil.qcheck ~count:300 "create, run_stream and run raise the oracle's errors" Tutil.seed_arb
      prop_errors;
    Tutil.qcheck ~count:300 "streaming utilization is bit-equal to the integral" Tutil.seed_arb
      prop_utilization;
    Alcotest.test_case "utilization at reservation boundaries" `Quick test_utilization_cases;
    Alcotest.test_case "edge cases: empty, m = 1, back to back, coincident, far future" `Quick
      test_edge_cases;
  ]
