(* Timeline vs Profile: the mutable segment tree must be observationally
   identical to the persistent profile it replaces on every operation the
   schedulers perform — enforced on random op sequences and on whole
   scheduler runs against the retained Profile-backed reference
   implementations. *)

open Resa_core

let steps = Alcotest.(list (pair int int))

(* --- unit tests --------------------------------------------------------- *)

let test_constant () =
  let tl = Timeline.create 7 in
  Alcotest.(check int) "value at 0" 7 (Timeline.value_at tl 0);
  Alcotest.(check int) "value far out" 7 (Timeline.value_at tl 123_456);
  Alcotest.(check int) "last breakpoint" 0 (Timeline.last_breakpoint tl);
  Alcotest.check steps "to_profile" [ (0, 7) ] (Profile.to_steps (Timeline.to_profile tl))

let test_roundtrip () =
  let p = Profile.of_steps [ (0, 5); (3, 1); (6, 8); (11, 2) ] in
  let tl = Timeline.of_profile p in
  Alcotest.(check bool) "roundtrip" true (Profile.equal p (Timeline.to_profile tl));
  (* A far change and its inverse leave the same normalised segments. *)
  Timeline.change tl ~lo:1000 ~hi:1024 ~delta:1;
  Timeline.change tl ~lo:1000 ~hi:1024 ~delta:(-1);
  Alcotest.(check bool) "after a far change and its inverse" true
    (Profile.equal p (Timeline.to_profile tl));
  Alcotest.(check int) "segments" 4 (Timeline.node_count tl)

let test_change_reserve () =
  let tl = Timeline.create 4 in
  Timeline.change tl ~lo:2 ~hi:5 ~delta:(-3);
  Alcotest.(check int) "inside" 1 (Timeline.value_at tl 3);
  Alcotest.(check int) "outside" 4 (Timeline.value_at tl 5);
  Timeline.reserve tl ~start:0 ~dur:2 ~need:4;
  Alcotest.(check int) "reserved" 0 (Timeline.value_at tl 1);
  Alcotest.check_raises "insufficient"
    (Invalid_argument "Timeline.reserve: insufficient capacity in window") (fun () ->
      Timeline.reserve tl ~start:1 ~dur:3 ~need:2);
  (* Inverse range-add undoes a reservation exactly. *)
  Timeline.change tl ~lo:0 ~hi:2 ~delta:4;
  Timeline.change tl ~lo:2 ~hi:5 ~delta:3;
  Alcotest.(check bool) "back to constant" true
    (Profile.equal (Profile.constant 4) (Timeline.to_profile tl))

let test_empty_window () =
  let tl = Timeline.create 3 in
  Alcotest.(check int) "min identity" max_int (Timeline.min_on tl ~lo:5 ~hi:5);
  Alcotest.(check int) "max identity" min_int (Timeline.max_on tl ~lo:5 ~hi:5);
  Alcotest.check_raises "bad window" (Invalid_argument "Timeline: bad window") (fun () ->
      ignore (Timeline.min_on tl ~lo:6 ~hi:5))

let test_earliest_fit () =
  let p = Profile.of_steps [ (0, 2); (4, 0); (6, 5) ] in
  let tl = Timeline.of_profile p in
  Alcotest.(check (option int)) "fits at once" (Some 0)
    (Timeline.earliest_fit tl ~from:0 ~dur:3 ~need:2);
  Alcotest.(check (option int)) "must jump the hole" (Some 6)
    (Timeline.earliest_fit tl ~from:0 ~dur:5 ~need:2);
  Alcotest.(check (option int)) "need too high" None
    (Timeline.earliest_fit tl ~from:0 ~dur:1 ~need:6);
  Alcotest.(check (option int)) "far from" (Some 50)
    (Timeline.earliest_fit tl ~from:50 ~dur:4 ~need:5)

let test_forward_view () =
  let p = Profile.of_steps [ (0, 9); (2, 1); (5, 6) ] in
  let tl = Timeline.of_profile p in
  let fwd = Timeline.to_profile ~from:3 tl in
  Alcotest.check steps "past collapsed" [ (0, 1); (5, 6) ] (Profile.to_steps fwd)

(* --- speculation: checkpoint / rollback / commit ------------------------ *)

let test_checkpoint_rollback () =
  let tl = Timeline.of_profile (Profile.of_steps [ (0, 6); (4, 2); (9, 6) ]) in
  let before = Timeline.to_profile tl in
  let m = Timeline.checkpoint tl in
  Timeline.reserve tl ~start:0 ~dur:3 ~need:4;
  Timeline.change tl ~lo:10 ~hi:20 ~delta:(-5);
  (* Queries see the speculative state... *)
  Alcotest.(check int) "speculative value" 2 (Timeline.value_at tl 1);
  Alcotest.(check int) "speculative far value" 1 (Timeline.value_at tl 12);
  Timeline.rollback tl m;
  (* ...and rollback is exact. *)
  Alcotest.(check bool) "identity after rollback" true
    (Profile.equal before (Timeline.to_profile tl))

let test_rollback_after_growth () =
  (* Speculative writes far past the current horizon force root doubling;
     rollback must restore values even though the tree keeps its new size. *)
  let tl = Timeline.create 5 in
  Timeline.change tl ~lo:0 ~hi:4 ~delta:(-1);
  let m = Timeline.checkpoint tl in
  Timeline.change tl ~lo:100_000 ~hi:200_000 ~delta:(-3);
  Alcotest.(check int) "speculative far write" 2 (Timeline.value_at tl 150_000);
  Timeline.rollback tl m;
  Alcotest.(check int) "tail restored" 5 (Timeline.value_at tl 150_000);
  Alcotest.(check int) "near values intact" 4 (Timeline.value_at tl 2)

let test_nested_speculation () =
  let tl = Timeline.create 8 in
  let outer = Timeline.checkpoint tl in
  Timeline.change tl ~lo:0 ~hi:10 ~delta:(-1);
  let inner = Timeline.checkpoint tl in
  Timeline.change tl ~lo:0 ~hi:10 ~delta:(-2);
  Timeline.rollback tl inner;
  (* Inner rollback keeps the outer trial. *)
  Alcotest.(check int) "outer trial survives" 7 (Timeline.value_at tl 5);
  let inner2 = Timeline.checkpoint tl in
  Timeline.change tl ~lo:0 ~hi:10 ~delta:(-4);
  Timeline.commit tl inner2;
  (* Commit folds into the enclosing scope... *)
  Alcotest.(check int) "committed trial kept" 3 (Timeline.value_at tl 5);
  Timeline.rollback tl outer;
  (* ...so the outer rollback still retracts it. *)
  Alcotest.(check int) "outer rollback undoes all" 8 (Timeline.value_at tl 5)

let test_stale_marks_rejected () =
  let tl = Timeline.create 4 in
  let m = Timeline.checkpoint tl in
  Timeline.change tl ~lo:0 ~hi:5 ~delta:(-1);
  Timeline.rollback tl m;
  Alcotest.check_raises "mark reused after rollback"
    (Invalid_argument "Timeline.commit: stale or non-LIFO mark") (fun () ->
      Timeline.commit tl m);
  Alcotest.check_raises "double rollback"
    (Invalid_argument "Timeline.rollback: stale or non-LIFO mark") (fun () ->
      Timeline.rollback tl m)

(* [Timeline.check] as a boolean, reporting the broken invariant. *)
let valid tl =
  match Timeline.check tl with
  | () -> true
  | exception Failure msg ->
    prerr_endline msg;
    false

(* Randomized: arbitrary mutations under arbitrarily nested speculation
   (inner scopes randomly rolled back or committed) — rolling back the
   outermost checkpoint must be a perfect identity w.r.t. the rebuilt
   profile. With [scale > 1] windows are [scale] times wider, so the
   timeline spans several blocks; rounds of committed growth and gc then
   separate the speculations, each undone across block splits and
   merges. *)
let speculation_identity_with ~scale ~rounds seed =
  let rng = Prng.create ~seed in
  let tl = Timeline.of_profile (Tutil.profile_of_seed seed) in
  let org = ref 0 and ok = ref true and peak = ref 0 in
  let step () =
    if not (valid tl) then ok := false;
    peak := max !peak (Timeline.node_count tl)
  in
  let mutate () =
    if Prng.int rng ~bound:2 = 0 then begin
      let lo = !org + Prng.int rng ~bound:(60 * scale)
      and len = Prng.int_incl rng ~lo:1 ~hi:(25 * scale) in
      Timeline.change tl ~lo ~hi:(lo + len) ~delta:(Prng.int_incl rng ~lo:(-5) ~hi:5)
    end
    else begin
      let start = !org + Prng.int rng ~bound:(50 * scale)
      and dur = Prng.int_incl rng ~lo:1 ~hi:(12 * scale) in
      let mn = Timeline.min_on tl ~lo:start ~hi:(start + dur) in
      if mn >= 1 then Timeline.reserve tl ~start ~dur ~need:(Prng.int_incl rng ~lo:1 ~hi:mn)
    end;
    step ()
  in
  let rec churn depth =
    for _ = 1 to 6 do
      match Prng.int rng ~bound:3 with
      | 1 when depth < 3 ->
        let m = Timeline.checkpoint tl in
        churn (depth + 1);
        Timeline.rollback tl m;
        step ()
      | 2 when depth < 3 ->
        let m = Timeline.checkpoint tl in
        churn (depth + 1);
        Timeline.commit tl m
      | _ -> mutate ()
    done
  in
  for round = 1 to rounds do
    if round > 1 then begin
      for _ = 1 to 20 do
        mutate ()
      done;
      if Prng.int rng ~bound:3 = 0 then begin
        org := !org + Prng.int rng ~bound:(3 * scale);
        Timeline.gc tl ~upto:!org;
        step ()
      end
    end;
    let reference = Timeline.to_profile tl and segments = Timeline.node_count tl in
    let m0 = Timeline.checkpoint tl in
    churn 0;
    Timeline.rollback tl m0;
    step ();
    if not (Profile.equal reference (Timeline.to_profile tl) && segments = Timeline.node_count tl)
    then ok := false
  done;
  (* At least 8 blocks of 16 segments at some point. *)
  !ok && (scale = 1 || !peak >= 128)

let speculation_identity = speculation_identity_with ~scale:1 ~rounds:1

(* --- randomized differential: operation sequences ----------------------- *)

(* [p] collapsed below [upto]: what [gc ~upto] and [to_profile ~from:upto]
   produce. *)
let collapse p upto =
  Profile.of_steps
    ((0, Profile.value_at p upto) :: List.filter (fun (x, _) -> x > upto) (Profile.to_steps p))

(* [ops] random operations against the Profile oracle, [Timeline.check]
   after each. With [scale > 1] every coordinate range is [scale] times
   wider and each operation follows one more range change, so the
   timeline grows past 8 blocks; one iteration in 50 then collects the
   history before a random instant instead. *)
let ops_agree_with ~scale ~ops seed =
  let rng = Prng.create ~seed in
  let p = ref (Tutil.profile_of_seed seed) in
  let tl = Timeline.of_profile !p in
  let org = ref 0 and peak = ref 0 in
  let ok = ref true in
  let check name b = if not b then (Printf.eprintf "mismatch: %s (seed %d)\n" name seed; ok := false) in
  let at bound = !org + Prng.int rng ~bound:(bound * scale) in
  let width hi = Prng.int_incl rng ~lo:1 ~hi:(hi * scale) in
  (* Below the origin a timeline reads the origin's value, whatever
     changes there since. *)
  let update ~lo p' = p := if lo = !org && lo > 0 then collapse p' lo else p' in
  let change () =
    let lo = at 50 and len = width 20 in
    let delta = Prng.int_incl rng ~lo:(-4) ~hi:4 in
    update ~lo (Profile.change !p ~lo ~hi:(lo + len) ~delta);
    Timeline.change tl ~lo ~hi:(lo + len) ~delta
  in
  for _ = 1 to ops do
    if scale > 1 then begin
      if Prng.int rng ~bound:50 = 0 then begin
        org := at 3;
        update ~lo:!org !p;
        Timeline.gc tl ~upto:!org
      end
      else change ();
      check "valid" (valid tl)
    end;
    (match Prng.int rng ~bound:10 with
    | 0 -> change ()
    | 1 ->
      let start = at 40 and dur = width 10 in
      let mn = Profile.min_on !p ~lo:start ~hi:(start + dur) in
      check "min before reserve" (mn = Timeline.min_on tl ~lo:start ~hi:(start + dur));
      if mn >= 1 then begin
        let need = Prng.int_incl rng ~lo:1 ~hi:mn in
        update ~lo:start (Profile.reserve !p ~start ~dur ~need);
        Timeline.reserve tl ~start ~dur ~need
      end
    | 2 ->
      let x = at 100 in
      check "value_at" (Profile.value_at !p x = Timeline.value_at tl x)
    | 3 ->
      let lo = at 60 in
      let hi = lo + Prng.int rng ~bound:(25 * scale) in
      if lo = hi then begin
        check "empty min" (Timeline.min_on tl ~lo ~hi = max_int);
        check "empty max" (Timeline.max_on tl ~lo ~hi = min_int)
      end
      else begin
        check "min_on" (Profile.min_on !p ~lo ~hi = Timeline.min_on tl ~lo ~hi);
        check "max_on" (Profile.max_on !p ~lo ~hi = Timeline.max_on tl ~lo ~hi)
      end
    | 4 ->
      let from = at 60 and dur = width 10 in
      let need = Prng.int_incl rng ~lo:(-1) ~hi:12 in
      check "earliest_fit"
        (Profile.earliest_fit !p ~from ~dur ~need = Timeline.earliest_fit tl ~from ~dur ~need)
    | 5 | 6 -> check "last_breakpoint" (Profile.last_breakpoint !p = Timeline.last_breakpoint tl)
    | 7 ->
      check "final_value" (Profile.final_value !p = Timeline.final_value tl)
    | 8 ->
      if Profile.final_value !p > 0 then begin
        let from = at 60 in
        let area = Prng.int_incl rng ~lo:1 ~hi:(600 * scale) in
        let expect = Resa_exact.Lower_bounds.min_time_with_area !p ~from ~area in
        check "first_reaching_area (uncapped)"
          (Timeline.first_reaching_area tl ~from ~area ~cap:max_int = expect);
        let cap = !org + Prng.int_incl rng ~lo:1 ~hi:(120 * scale) in
        check "first_reaching_area (capped)"
          (Timeline.first_reaching_area tl ~from ~area ~cap = min cap expect)
      end
    | _ ->
      let from = at 50 in
      check "forward view" (Profile.equal (collapse !p from) (Timeline.to_profile ~from tl)));
    check "valid" (valid tl);
    peak := max !peak (Timeline.node_count tl)
  done;
  (* At least 8 blocks of 16 segments at some point. *)
  if scale > 1 then check "8 blocks" (!peak >= 128);
  !ok && Profile.equal !p (Timeline.to_profile tl)

let ops_agree = ops_agree_with ~scale:1 ~ops:40

(* --- randomized differential: whole scheduler runs ---------------------- *)

let resa_instance_of_seed seed =
  (* Sized so the O(n·k) reference oracles stay fast; always with a shot at
     a non-trivial reservation set. *)
  let rng = Prng.create ~seed in
  let m = Prng.int_incl rng ~lo:2 ~hi:16 in
  let n = Prng.int_incl rng ~lo:1 ~hi:40 in
  let jobs =
    List.init n (fun i ->
        Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:15) ~q:(Prng.int_incl rng ~lo:1 ~hi:m))
  in
  let n_res = Prng.int_incl rng ~lo:0 ~hi:6 in
  let reservations = ref [] in
  let u = ref (Profile.constant 0) in
  for i = 0 to n_res - 1 do
    let start = Prng.int rng ~bound:40 in
    let p = Prng.int_incl rng ~lo:1 ~hi:12 in
    let q = Prng.int_incl rng ~lo:1 ~hi:m in
    let u' = Profile.change !u ~lo:start ~hi:(start + p) ~delta:q in
    if Profile.max_value u' <= m - 1 then begin
      (* Keep one processor always free so every job can eventually run. *)
      u := u';
      reservations := Reservation.make ~id:i ~start ~p ~q :: !reservations
    end
  done;
  Instance.create_exn ~m ~jobs ~reservations:!reservations

(* --- history garbage collection ----------------------------------------- *)

let test_gc_collapses_past () =
  let tl = Timeline.of_profile (Profile.of_steps [ (0, 9); (2, 1); (5, 6); (40, 3) ]) in
  Timeline.reserve tl ~start:50 ~dur:10 ~need:2;
  (* Pile mutation history into the dead past so there is something to free
     (queries are read-only and materialise nothing, so only mutations
     grow the tree). Net delta zero: values are untouched. *)
  for i = 0 to 39 do
    Timeline.change tl ~lo:i ~hi:(i + 1) ~delta:1;
    Timeline.change tl ~lo:i ~hi:(i + 1) ~delta:(-1)
  done;
  let future_before = Timeline.to_profile ~from:40 tl in
  let nodes_before = Timeline.node_count tl in
  Timeline.gc tl ~upto:40;
  (* Exact on [upto, ∞): the full rebuilt profile IS the collapsed view. *)
  Alcotest.(check bool) "future preserved" true
    (Profile.equal future_before (Timeline.to_profile tl));
  Alcotest.(check int) "past is value_at upto" 3 (Timeline.value_at tl 0);
  Alcotest.(check bool) "history freed" true (Timeline.node_count tl < nodes_before);
  (* The compacted timeline keeps working: mutations and queries as usual. *)
  Timeline.reserve tl ~start:41 ~dur:4 ~need:1;
  Alcotest.(check int) "post-gc reserve" 2 (Timeline.value_at tl 42);
  Alcotest.(check (option int)) "post-gc earliest_fit" (Some 45)
    (Timeline.earliest_fit tl ~from:41 ~dur:5 ~need:3)

let test_gc_rejects () =
  let tl = Timeline.create 4 in
  Alcotest.check_raises "negative upto" (Invalid_argument "Timeline.gc: negative upto") (fun () ->
      Timeline.gc tl ~upto:(-1));
  let m = Timeline.checkpoint tl in
  Alcotest.check_raises "outstanding checkpoint"
    (Invalid_argument "Timeline.gc: checkpoint outstanding") (fun () -> Timeline.gc tl ~upto:3);
  Timeline.rollback tl m;
  Timeline.gc tl ~upto:3

(* Randomized: after arbitrary mutations, gc at a random instant must agree
   with the Profile collapse on the whole line and be invisible to every
   future-window query. *)
let gc_is_collapse seed =
  let rng = Prng.create ~seed in
  let tl = Timeline.of_profile (Tutil.profile_of_seed seed) in
  for _ = 1 to 20 do
    let lo = Prng.int rng ~bound:60 and len = Prng.int_incl rng ~lo:1 ~hi:25 in
    Timeline.change tl ~lo ~hi:(lo + len) ~delta:(Prng.int_incl rng ~lo:(-5) ~hi:5)
  done;
  let upto = Prng.int rng ~bound:100 in
  let collapsed = Timeline.to_profile ~from:upto tl in
  Timeline.gc tl ~upto;
  let ok = ref (Profile.equal collapsed (Timeline.to_profile tl)) in
  for _ = 1 to 10 do
    let lo = upto + Prng.int rng ~bound:40 in
    let hi = lo + Prng.int_incl rng ~lo:1 ~hi:15 in
    if Profile.min_on collapsed ~lo ~hi <> Timeline.min_on tl ~lo ~hi then ok := false
  done;
  !ok

(* --- block copy ------------------------------------------------------------ *)

(* Randomized: rounds of changes (some under checkpoints that are then
   committed or rolled back) and gc at random instants, on windows wide
   enough that the timeline spans 8+ blocks. After each round, [copy ~from]
   for [from] below, at and above the origin must hold the segments of the
   profile round trip it replaces and pass [check]; then mutating the copy
   must leave the source as it was and the reverse, the source's change
   made under a checkpoint that is open while the copy is taken, as the
   engine's decision checkpoint is when CONS seeds its plan. *)
let copy_is_round_trip seed =
  let rng = Prng.create ~seed in
  let scale = 200 in
  let tl = Timeline.of_profile (Tutil.profile_of_seed seed) in
  let org = ref 0 and peak = ref 0 and ok = ref true in
  let check name b =
    if not b then begin
      Printf.eprintf "copy: %s (seed %d)\n" name seed;
      ok := false
    end
  in
  let segs t = Profile.to_steps (Timeline.to_profile t) in
  let window () =
    let lo = !org + Prng.int rng ~bound:(60 * scale) in
    (lo, lo + Prng.int_incl rng ~lo:1 ~hi:(25 * scale))
  in
  let mutate () =
    let lo, hi = window () in
    Timeline.change tl ~lo ~hi ~delta:(Prng.int_incl rng ~lo:(-5) ~hi:5);
    peak := max !peak (Timeline.node_count tl)
  in
  let try_copy from =
    let spec = Timeline.checkpoint tl in
    let c = Timeline.copy ~from tl in
    let r = Timeline.of_profile (Timeline.to_profile ~from tl) in
    check "segments" (segs c = segs r && Timeline.node_count c = Timeline.node_count r);
    check "origin and checkpoints"
      (Timeline.origin c = 0 && Timeline.open_checkpoints c = 0);
    check "valid" (valid c);
    let source = segs tl in
    let lo, hi = window () in
    Timeline.change c ~lo ~hi ~delta:(1 + Prng.int rng ~bound:4);
    check "copy valid after a change" (valid c);
    check "mutating the copy leaves the source" (segs tl = source);
    let copied = segs c in
    let lo, hi = window () in
    Timeline.change tl ~lo ~hi ~delta:(-1 - Prng.int rng ~bound:4);
    Timeline.rollback tl spec;
    check "mutating the source leaves the copy" (segs c = copied);
    check "source rolled back" (segs tl = source)
  in
  for _ = 1 to 15 do
    for _ = 1 to 20 do
      match Prng.int rng ~bound:8 with
      | 0 ->
        let m = Timeline.checkpoint tl in
        mutate ();
        mutate ();
        Timeline.rollback tl m
      | 1 ->
        let m = Timeline.checkpoint tl in
        mutate ();
        Timeline.commit tl m
      | 2 when Prng.int rng ~bound:4 = 0 ->
        org := !org + Prng.int rng ~bound:(3 * scale);
        Timeline.gc tl ~upto:!org
      | _ -> mutate ()
    done;
    if !org > 0 then try_copy (Prng.int rng ~bound:!org);
    try_copy !org;
    try_copy (!org + Prng.int_incl rng ~lo:1 ~hi:(80 * scale))
  done;
  (* At least 8 blocks of 16 segments at some point. *)
  check "8 blocks" (!peak >= 128);
  !ok

let starts inst sched = List.init (Instance.n_jobs inst) (Schedule.start sched)

(* FIFO and a random permutation drawn from the same seed: Bnb's
   incumbent, [resa solve --priority] and the experiments schedule in
   orders other than submission order. *)
let same_schedule name fast reference seed =
  let inst = resa_instance_of_seed seed in
  List.for_all
    (fun priority ->
      let order = Resa_algos.Priority.order priority inst in
      let a = starts inst (fast inst order) in
      let b = starts inst (reference inst order) in
      if a <> b then
        Printf.eprintf "%s diverges on seed %d, order %s\n" name seed
          (Resa_algos.Priority.name priority);
      a = b)
    [ Resa_algos.Priority.Fifo; Resa_algos.Priority.Random seed ]

let suite =
  [
    Alcotest.test_case "constant timeline" `Quick test_constant;
    Alcotest.test_case "profile roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "change and reserve" `Quick test_change_reserve;
    Alcotest.test_case "empty windows" `Quick test_empty_window;
    Alcotest.test_case "earliest fit" `Quick test_earliest_fit;
    Alcotest.test_case "forward view" `Quick test_forward_view;
    Alcotest.test_case "checkpoint/rollback identity" `Quick test_checkpoint_rollback;
    Alcotest.test_case "rollback across tree growth" `Quick test_rollback_after_growth;
    Alcotest.test_case "nested speculation" `Quick test_nested_speculation;
    Alcotest.test_case "stale marks rejected" `Quick test_stale_marks_rejected;
    Alcotest.test_case "gc collapses history, preserves the future" `Quick test_gc_collapses_past;
    Alcotest.test_case "gc precondition checks" `Quick test_gc_rejects;
    Tutil.qcheck ~count:500 "gc = to_profile ~from collapse" Tutil.seed_arb gc_is_collapse;
    Tutil.qcheck ~count:500 "nested speculation rolls back to identity" Tutil.seed_arb
      speculation_identity;
    Tutil.qcheck ~count:1000 "random op sequences match Profile" Tutil.seed_arb ops_agree;
    Tutil.qcheck ~count:25 "multi-block op sequences match Profile, with gc"
      Tutil.seed_arb (ops_agree_with ~scale:200 ~ops:500);
    Tutil.qcheck ~count:25 "multi-block speculation rolls back, with gc"
      Tutil.seed_arb (speculation_identity_with ~scale:200 ~rounds:30);
    Tutil.qcheck ~count:15 "copy ~from = of_profile (to_profile ~from), independent"
      Tutil.seed_arb copy_is_round_trip;
    Tutil.qcheck ~count:300 "LSRC = Profile-backed LSRC" Tutil.seed_arb
      (same_schedule "lsrc" Resa_algos.Lsrc.run_order Resa_oracles.Lsrc.run_order_reference);
    Tutil.qcheck ~count:300 "FCFS = Profile-backed FCFS" Tutil.seed_arb
      (same_schedule "fcfs" Resa_algos.Fcfs.run_order Resa_oracles.Fcfs.run_order_reference);
    Tutil.qcheck ~count:300 "conservative = Profile-backed conservative" Tutil.seed_arb
      (same_schedule "conservative" Resa_algos.Backfill.conservative_order
         Resa_oracles.Backfill.conservative_order_reference);
    Tutil.qcheck ~count:300 "EASY = Profile-backed EASY" Tutil.seed_arb
      (same_schedule "easy" Resa_algos.Backfill.easy_order
         Resa_oracles.Backfill.easy_order_reference);
  ]
