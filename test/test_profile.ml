module Profile = Resa_oracles.Profile_oracle

let steps = Alcotest.(list (pair int int))

let test_constant () =
  let p = Profile.constant 5 in
  Alcotest.(check int) "value at 0" 5 (Profile.value_at p 0);
  Alcotest.(check int) "value far out" 5 (Profile.value_at p 1_000_000);
  Alcotest.check steps "single step" [ (0, 5) ] (Profile.to_steps p)

let test_of_steps_normalizes () =
  let p = Profile.of_steps [ (0, 2); (3, 2); (5, 7) ] in
  Alcotest.check steps "merged equal segments" [ (0, 2); (5, 7) ] (Profile.to_steps p)

let test_of_steps_sorts () =
  let p = Profile.of_steps [ (5, 1); (0, 3); (2, 4) ] in
  Alcotest.check steps "sorted" [ (0, 3); (2, 4); (5, 1) ] (Profile.to_steps p)

let test_of_steps_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Profile.of_steps: empty list") (fun () ->
      ignore (Profile.of_steps []));
  Alcotest.check_raises "no zero start"
    (Invalid_argument "Profile.of_steps: first step must start at time 0") (fun () ->
      ignore (Profile.of_steps [ (1, 2) ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Profile.of_steps: duplicate times")
    (fun () -> ignore (Profile.of_steps [ (0, 1); (3, 2); (3, 4) ]))

(* [of_arrays] takes its arrays over as they are, so it accepts only the
   normal form it would otherwise have to restore. *)
let test_of_arrays () =
  Alcotest.check steps "taken as given" [ (0, 3); (2, 4); (5, 1) ]
    (Profile.to_steps (Profile.of_arrays [| 0; 2; 5 |] [| 3; 4; 1 |]));
  List.iter
    (fun (name, times, caps) ->
      Alcotest.check_raises name (Invalid_argument "Profile.of_arrays: steps not in normal form")
        (fun () -> ignore (Profile.of_arrays times caps)))
    [
      ("empty", [||], [||]);
      ("lengths differ", [| 0; 2 |], [| 3 |]);
      ("no zero start", [| 1 |], [| 3 |]);
      ("times not increasing", [| 0; 2; 2 |], [| 3; 4; 1 |]);
      ("equal neighbours", [| 0; 2 |], [| 3; 3 |]);
    ]

let test_of_events () =
  let p = Profile.of_events ~base:10 [ (2, -3); (5, 3); (2, -1) ] in
  Alcotest.check steps "staircase" [ (0, 10); (2, 6); (5, 9) ] (Profile.to_steps p)

let test_of_events_empty () =
  Alcotest.check steps "constant base" [ (0, 4) ] (Profile.to_steps (Profile.of_events ~base:4 []))

let test_of_events_at_zero () =
  let p = Profile.of_events ~base:3 [ (0, 2) ] in
  Alcotest.check steps "event at origin" [ (0, 5) ] (Profile.to_steps p)

let test_value_at () =
  let p = Profile.of_steps [ (0, 1); (4, 9); (10, 2) ] in
  Alcotest.(check int) "first" 1 (Profile.value_at p 3);
  Alcotest.(check int) "at breakpoint" 9 (Profile.value_at p 4);
  Alcotest.(check int) "last" 2 (Profile.value_at p 99)

let test_min_max_on () =
  let p = Profile.of_steps [ (0, 5); (3, 1); (6, 8) ] in
  Alcotest.(check int) "min across" 1 (Profile.min_on p ~lo:0 ~hi:7);
  Alcotest.(check int) "min inside" 5 (Profile.min_on p ~lo:0 ~hi:3);
  Alcotest.(check int) "min touching" 1 (Profile.min_on p ~lo:2 ~hi:4);
  Alcotest.(check int) "max across" 8 (Profile.max_on p ~lo:0 ~hi:7);
  Alcotest.(check int) "max tail" 8 (Profile.max_on p ~lo:100 ~hi:101)

let test_empty_and_bad_windows () =
  (* All window queries agree on [lo = hi]: the identity of their monoid.
     min_on used to disagree with integral_on here. *)
  let p = Profile.of_steps [ (0, 5); (3, 1); (6, 8) ] in
  Alcotest.(check int) "empty min is max_int" max_int (Profile.min_on p ~lo:4 ~hi:4);
  Alcotest.(check int) "empty max is min_int" min_int (Profile.max_on p ~lo:4 ~hi:4);
  Alcotest.(check int) "empty integral is 0" 0 (Profile.integral_on p ~lo:4 ~hi:4);
  let bad = Invalid_argument "Profile: bad window" in
  Alcotest.check_raises "lo > hi" bad (fun () -> ignore (Profile.min_on p ~lo:5 ~hi:4));
  Alcotest.check_raises "negative lo" bad (fun () ->
      ignore (Profile.integral_on p ~lo:(-1) ~hi:3))

let test_integral () =
  let p = Profile.of_steps [ (0, 5); (3, 1); (6, 8) ] in
  Alcotest.(check int) "full window" ((5 * 3) + (1 * 3) + (8 * 2)) (Profile.integral_on p ~lo:0 ~hi:8);
  Alcotest.(check int) "partial" ((5 * 1) + (1 * 2)) (Profile.integral_on p ~lo:2 ~hi:5);
  Alcotest.(check int) "empty" 0 (Profile.integral_on p ~lo:4 ~hi:4)

let test_add_sub () =
  let a = Profile.of_steps [ (0, 1); (5, 3) ] in
  let b = Profile.of_steps [ (0, 2); (3, 0); (7, 1) ] in
  Alcotest.check steps "sum" [ (0, 3); (3, 1); (5, 3); (7, 4) ] (Profile.to_steps (Profile.add a b));
  Alcotest.(check bool) "a + b - b = a" true
    (Profile.equal a (Profile.sub (Profile.add a b) b))

let test_change () =
  let p = Profile.constant 4 in
  let p = Profile.change p ~lo:2 ~hi:6 ~delta:(-3) in
  Alcotest.check steps "carved" [ (0, 4); (2, 1); (6, 4) ] (Profile.to_steps p);
  Alcotest.(check bool) "empty window is identity" true
    (Profile.equal p (Profile.change p ~lo:5 ~hi:5 ~delta:7))

let test_reserve_ok () =
  let p = Profile.constant 4 in
  let p = Profile.reserve p ~start:1 ~dur:3 ~need:4 in
  Alcotest.(check int) "fully used" 0 (Profile.min_on p ~lo:1 ~hi:4)

let test_reserve_insufficient () =
  let p = Profile.of_steps [ (0, 4); (2, 1) ] in
  Alcotest.check_raises "overbooked"
    (Invalid_argument "Profile.reserve: insufficient capacity in window") (fun () ->
      ignore (Profile.reserve p ~start:0 ~dur:3 ~need:2))

let test_earliest_fit_basic () =
  let p = Profile.of_steps [ (0, 2); (4, 6); (9, 3) ] in
  Alcotest.(check (option int)) "fits now" (Some 0)
    (Profile.earliest_fit p ~from:0 ~dur:3 ~need:2);
  Alcotest.(check (option int)) "waits for capacity" (Some 4)
    (Profile.earliest_fit p ~from:0 ~dur:3 ~need:5);
  Alcotest.(check (option int)) "window must fit wholly" (Some 4)
    (Profile.earliest_fit p ~from:0 ~dur:5 ~need:4)

let test_earliest_fit_window_slides_past_block () =
  (* Capacity dip in the middle: a long job must wait for the dip to end. *)
  let p = Profile.of_steps [ (0, 10); (5, 2); (8, 10) ] in
  Alcotest.(check (option int)) "slides past dip" (Some 8)
    (Profile.earliest_fit p ~from:0 ~dur:6 ~need:5);
  Alcotest.(check (option int)) "short job fits before dip" (Some 0)
    (Profile.earliest_fit p ~from:0 ~dur:5 ~need:5);
  Alcotest.(check (option int)) "narrow job unaffected" (Some 3)
    (Profile.earliest_fit p ~from:3 ~dur:10 ~need:2)

let test_earliest_fit_none () =
  let p = Profile.of_steps [ (0, 5); (10, 1) ] in
  Alcotest.(check (option int)) "tail too small" None
    (Profile.earliest_fit p ~from:11 ~dur:2 ~need:3);
  Alcotest.(check (option int)) "finite window before tail still found" (Some 0)
    (Profile.earliest_fit p ~from:0 ~dur:10 ~need:3)

let test_earliest_fit_respects_from () =
  let p = Profile.constant 5 in
  Alcotest.(check (option int)) "never before from" (Some 7)
    (Profile.earliest_fit p ~from:7 ~dur:2 ~need:1)

let test_next_breakpoint () =
  let p = Profile.of_steps [ (0, 1); (4, 2); (9, 3) ] in
  Alcotest.(check (option int)) "middle" (Some 4) (Profile.next_breakpoint_after p 0);
  Alcotest.(check (option int)) "skip equal" (Some 9) (Profile.next_breakpoint_after p 4);
  Alcotest.(check (option int)) "past end" None (Profile.next_breakpoint_after p 9)

let test_final_and_last () =
  let p = Profile.of_steps [ (0, 1); (4, 2) ] in
  Alcotest.(check int) "final value" 2 (Profile.final_value p);
  Alcotest.(check int) "last breakpoint" 4 (Profile.last_breakpoint p);
  Alcotest.(check int) "min value" 1 (Profile.min_value p);
  Alcotest.(check int) "max value" 2 (Profile.max_value p)

(* --- properties --- *)

let prop_add_commutes =
  Tutil.qcheck "add commutes" QCheck.(pair Tutil.seed_arb Tutil.seed_arb) (fun (s1, s2) ->
      let a = Tutil.profile_of_seed s1 and b = Tutil.profile_of_seed s2 in
      Profile.equal (Profile.add a b) (Profile.add b a))

let prop_sub_self_zero =
  Tutil.qcheck "p - p = 0" Tutil.seed_arb (fun s ->
      let p = Tutil.profile_of_seed s in
      Profile.equal (Profile.sub p p) (Profile.constant 0))

let prop_value_matches_steps =
  Tutil.qcheck "value_at agrees with to_steps" Tutil.seed_arb (fun s ->
      let p = Tutil.profile_of_seed s in
      List.for_all (fun (t, v) -> Profile.value_at p t = v) (Profile.to_steps p))

let prop_integral_additive =
  Tutil.qcheck "integral splits at midpoints"
    QCheck.(pair Tutil.seed_arb (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let p = Tutil.profile_of_seed s in
      let lo = min a b and mid = max a b in
      let hi = mid + 5 in
      Profile.integral_on p ~lo ~hi
      = Profile.integral_on p ~lo ~hi:mid + Profile.integral_on p ~lo:mid ~hi)

let prop_earliest_fit_is_sound_and_minimal =
  Tutil.qcheck "earliest_fit is sound and minimal"
    QCheck.(pair Tutil.seed_arb (pair small_nat (pair small_nat small_nat)))
    (fun (s, (from, (dur0, need))) ->
      let p = Tutil.profile_of_seed s in
      let dur = dur0 + 1 in
      match Profile.earliest_fit p ~from ~dur ~need with
      | None ->
        (* Then in particular nothing fits in a long explicit scan. *)
        let rec none_until t = t > from + 200 || (Profile.min_on p ~lo:t ~hi:(t + dur) < need && none_until (t + 1)) in
        none_until from
      | Some s0 ->
        s0 >= from
        && Profile.min_on p ~lo:s0 ~hi:(s0 + dur) >= need
        &&
        (* Minimality: brute-force all earlier starts. *)
        let rec check t = t >= s0 || (Profile.min_on p ~lo:t ~hi:(t + dur) < need && check (t + 1)) in
        check from)

let prop_reserve_integral =
  Tutil.qcheck "reserve removes exactly need*dur area" Tutil.seed_arb (fun s ->
      let p = Profile.add (Tutil.profile_of_seed s) (Profile.constant 5) in
      let hi = Profile.last_breakpoint p + 20 in
      match Profile.earliest_fit p ~from:0 ~dur:4 ~need:2 with
      | None -> true
      | Some t when t + 4 > hi -> true
      | Some t ->
        let p' = Profile.reserve p ~start:t ~dur:4 ~need:2 in
        Profile.integral_on p ~lo:0 ~hi - Profile.integral_on p' ~lo:0 ~hi = 8)

let suite =
  [
    Alcotest.test_case "constant profile" `Quick test_constant;
    Alcotest.test_case "of_steps normalizes" `Quick test_of_steps_normalizes;
    Alcotest.test_case "of_steps sorts input" `Quick test_of_steps_sorts;
    Alcotest.test_case "of_steps rejects bad input" `Quick test_of_steps_rejects;
    Alcotest.test_case "of_events sweeps deltas" `Quick test_of_events;
    Alcotest.test_case "of_events with no events" `Quick test_of_events_empty;
    Alcotest.test_case "of_events at time zero" `Quick test_of_events_at_zero;
    Alcotest.test_case "value_at across segments" `Quick test_value_at;
    Alcotest.test_case "min_on and max_on" `Quick test_min_max_on;
    Alcotest.test_case "empty and bad windows" `Quick test_empty_and_bad_windows;
    Alcotest.test_case "integral_on" `Quick test_integral;
    Alcotest.test_case "pointwise add and sub" `Quick test_add_sub;
    Alcotest.test_case "change over a window" `Quick test_change;
    Alcotest.test_case "reserve consumes capacity" `Quick test_reserve_ok;
    Alcotest.test_case "reserve rejects overbooking" `Quick test_reserve_insufficient;
    Alcotest.test_case "earliest_fit basics" `Quick test_earliest_fit_basic;
    Alcotest.test_case "earliest_fit slides past dips" `Quick test_earliest_fit_window_slides_past_block;
    Alcotest.test_case "earliest_fit can be impossible" `Quick test_earliest_fit_none;
    Alcotest.test_case "earliest_fit respects from" `Quick test_earliest_fit_respects_from;
    Alcotest.test_case "next_breakpoint_after" `Quick test_next_breakpoint;
    Alcotest.test_case "final value and extremes" `Quick test_final_and_last;
    prop_add_commutes;
    prop_sub_self_zero;
    prop_value_matches_steps;
    prop_integral_additive;
    prop_earliest_fit_is_sound_and_minimal;
    prop_reserve_integral;
    Alcotest.test_case "of_arrays takes the normal form only" `Quick test_of_arrays;
  ]
