open Resa_core
module Profile = Resa_oracles.Profile_oracle

let sample = "# demo instance\nm 8\njob 5 2\njob 2 5\nres 6 4 5\n"

let test_parse () =
  match Instance_io.of_string sample with
  | Error msg -> Alcotest.fail msg
  | Ok inst ->
    Alcotest.(check int) "m" 8 (Instance.m inst);
    Alcotest.(check int) "jobs" 2 (Instance.n_jobs inst);
    Alcotest.(check int) "reservations" 1 (Instance.n_reservations inst);
    Alcotest.(check int) "job 1 width" 5 (Job.q (Instance.job inst 1))

let test_round_trip () =
  let inst =
    Instance.of_sizes ~m:6 ~reservations:[ (3, 2, 4); (8, 1, 1) ] [ (4, 3); (2, 5); (7, 1) ]
  in
  match Instance_io.of_string (Instance_io.to_string inst) with
  | Error msg -> Alcotest.fail msg
  | Ok inst' ->
    Alcotest.(check int) "m" (Instance.m inst) (Instance.m inst');
    Alcotest.(check int) "jobs" (Instance.n_jobs inst) (Instance.n_jobs inst');
    Alcotest.(check bool) "same unavailability" true
      (Profile.equal (Instance.unavailability inst) (Instance.unavailability inst'))

let test_errors_cite_lines () =
  (match Instance_io.of_string "m 4\njob 0 1\n" with
  | Error msg -> Alcotest.(check string) "line cited" "line 2: invalid job" msg
  | Ok _ -> Alcotest.fail "invalid job accepted");
  (match Instance_io.of_string "m 4\nfrob 1 2\n" with
  | Error msg ->
    Alcotest.(check bool) "directive named" true (String.length msg > 10)
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Instance_io.of_string "job 1 1\n" with
  | Error msg -> Alcotest.(check string) "missing m" "missing 'm <machines>' line" msg
  | Ok _ -> Alcotest.fail "missing m accepted"

let test_semantic_errors_propagate () =
  (* Structurally fine but infeasible reservations must still be rejected. *)
  match Instance_io.of_string "m 2\nres 0 5 2\nres 1 5 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overbooked reservations accepted"

let prop_round_trip =
  Tutil.qcheck ~count:100 "instance files round trip" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_resa_of_seed seed in
      match Instance_io.of_string (Instance_io.to_string inst) with
      | Error _ -> false
      | Ok inst' ->
        Instance.m inst = Instance.m inst'
        && Instance.n_jobs inst = Instance.n_jobs inst'
        && Profile.equal (Instance.unavailability inst) (Instance.unavailability inst')
        && Array.for_all2
             (fun a b -> Job.p a = Job.p b && Job.q a = Job.q b)
             (Instance.jobs inst) (Instance.jobs inst'))

let suite =
  [
    Alcotest.test_case "parse a file" `Quick test_parse;
    Alcotest.test_case "print/parse round trip" `Quick test_round_trip;
    Alcotest.test_case "errors cite line numbers" `Quick test_errors_cite_lines;
    Alcotest.test_case "semantic validation applies" `Quick test_semantic_errors_propagate;
    prop_round_trip;
  ]
