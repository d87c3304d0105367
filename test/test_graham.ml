open Resa_core
open Resa_analysis

let test_lemma1_on_list_schedule () =
  let inst = Instance.of_sizes ~m:4 [ (3, 2); (2, 3); (4, 1); (1, 4) ] in
  let s = Resa_algos.Lsrc.run inst in
  Alcotest.(check bool) "holds" true (Graham.lemma1_holds inst s)

let test_lemma1_violated_by_idling () =
  (* Deliberately lazy schedule: long idle gap violates Lemma 1. *)
  let inst = Instance.of_sizes ~m:2 [ (1, 1); (1, 1) ] in
  let s = Schedule.make [| 0; 10 |] in
  match Graham.lemma1_witness inst s with
  | Some (t, t') ->
    Alcotest.(check bool) "witness ordered" true (t' >= t + Instance.pmax inst)
  | None -> Alcotest.fail "expected a violation witness"

let test_lemma1_requires_no_reservations () =
  let inst = Instance.of_sizes ~m:2 ~reservations:[ (0, 1, 1) ] [ (1, 1) ] in
  Alcotest.check_raises "reservations rejected"
    (Invalid_argument "Graham: the appendix machinery applies to reservation-free instances")
    (fun () -> ignore (Graham.lemma1_holds inst (Schedule.make [| 0 |])))

let test_certificate_tight_family () =
  (* Graham-tight family: makespan = (2 − 1/m)·opt exactly; certificate must
     hold with equality. *)
  let m = 6 in
  let inst, opt = Resa_gen.Adversarial.graham_tight ~m in
  let s = Resa_algos.Lsrc.run inst in
  let cert = Graham.theorem2_certificate inst s ~opt in
  Alcotest.(check bool) "holds" true cert.holds;
  Alcotest.(check int) "makespan 2m-1" ((2 * m) - 1) cert.makespan;
  Alcotest.(check (float 1e-9)) "rhs is exactly the bound"
    ((2.0 -. (1.0 /. float_of_int m)) *. float_of_int m)
    cert.graham_rhs

let test_certificate_detects_violation () =
  let inst = Instance.of_sizes ~m:2 [ (1, 1) ] in
  let s = Schedule.make [| 10 |] in
  let cert = Graham.theorem2_certificate inst s ~opt:1 in
  Alcotest.(check bool) "violated" false cert.holds

let test_integral_certificate_tight_family () =
  (* On the tight family the proof's chain is checked with exact integers:
     C_A = 2m-1, C* = m, X must sit between (m+1)(m-1) and W - (2m - C_A). *)
  let m = 6 in
  let inst, opt = Resa_gen.Adversarial.graham_tight ~m in
  let s = Resa_algos.Lsrc.run inst in
  let c = Graham.theorem2_integral_certificate inst s ~opt in
  Alcotest.(check bool) "chain holds" true c.chain_holds;
  Alcotest.(check int) "C_A" ((2 * m) - 1) c.c_list;
  Alcotest.(check int) "lemma lhs" ((m + 1) * (m - 1)) c.lemma1_lhs;
  Alcotest.(check int) "work" (Instance.total_work inst) c.total_work;
  Alcotest.(check bool) "X within" true (c.lemma1_lhs <= c.x_integral && c.x_integral <= c.work_rhs)

let test_integral_certificate_vacuous () =
  let inst = Instance.of_sizes ~m:3 [ (2, 1) ] in
  let s = Resa_algos.Lsrc.run inst in
  let c = Graham.theorem2_integral_certificate inst s ~opt:2 in
  Alcotest.(check bool) "vacuously holds" true c.chain_holds;
  Alcotest.(check int) "no integral" 0 c.x_integral

let prop_integral_certificate =
  Tutil.qcheck ~count:120 "integral chain holds vs exact optimum" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      match Tutil.optimal_makespan ~node_limit:300_000 inst with
      | None -> QCheck.assume_fail ()
      | Some opt ->
        List.for_all
          (fun p ->
            (Graham.theorem2_integral_certificate inst
               (Resa_algos.Lsrc.run ~priority:p inst)
               ~opt)
              .chain_holds)
          [ Resa_algos.Priority.Fifo; Resa_algos.Priority.Lpt ])

let prop_lemma1_all_list_schedules =
  Tutil.qcheck ~count:200 "Lemma 1 holds for every list schedule" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      List.for_all
        (fun p -> Graham.lemma1_holds inst (Resa_algos.Lsrc.run ~priority:p inst))
        [ Resa_algos.Priority.Fifo; Resa_algos.Priority.Lpt; Resa_algos.Priority.Random seed ])

let prop_theorem2_certificate =
  Tutil.qcheck ~count:120 "Theorem 2 certificate vs exact optimum" Tutil.seed_arb (fun seed ->
      let inst = Tutil.small_rigid_of_seed seed in
      match Tutil.optimal_makespan ~node_limit:300_000 inst with
      | None -> QCheck.assume_fail ()
      | Some opt ->
        (Graham.theorem2_certificate inst (Resa_algos.Lsrc.run inst) ~opt).holds)

let suite =
  [
    Alcotest.test_case "Lemma 1 on a list schedule" `Quick test_lemma1_on_list_schedule;
    Alcotest.test_case "Lemma 1 violated by idling" `Quick test_lemma1_violated_by_idling;
    Alcotest.test_case "reservation-free precondition" `Quick test_lemma1_requires_no_reservations;
    Alcotest.test_case "certificate on the tight family" `Quick test_certificate_tight_family;
    Alcotest.test_case "certificate detects violations" `Quick test_certificate_detects_violation;
    Alcotest.test_case "integral certificate on the tight family" `Quick test_integral_certificate_tight_family;
    Alcotest.test_case "integral certificate vacuous case" `Quick test_integral_certificate_vacuous;
    prop_integral_certificate;
    prop_lemma1_all_list_schedules;
    prop_theorem2_certificate;
  ]
