(* Timeline vs Profile: the mutable segment tree must be observationally
   identical to the persistent profile it replaces on every operation the
   schedulers perform — enforced on random op sequences and on whole
   scheduler runs against the retained Profile-backed reference
   implementations. *)

open Resa_core
module Profile = Resa_oracles.Profile_oracle

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
  Alcotest.(check bool) "fits" true (Timeline.reserve tl ~start:0 ~dur:2 ~need:4);
  Alcotest.(check int) "reserved" 0 (Timeline.value_at tl 1);
  let before = Timeline.to_profile tl in
  Alcotest.(check bool) "insufficient" false (Timeline.reserve tl ~start:1 ~dur:3 ~need:2);
  Alcotest.(check bool) "refused reserve changes nothing" true
    (Profile.equal before (Timeline.to_profile tl));
  (* Inverse range-add undoes a reservation exactly. *)
  Timeline.change tl ~lo:0 ~hi:2 ~delta:4;
  Timeline.change tl ~lo:2 ~hi:5 ~delta:3;
  Alcotest.(check bool) "back to constant" true
    (Profile.equal (Profile.constant 4) (Timeline.to_profile tl))

let test_empty_window () =
  let tl = Timeline.create 3 in
  Alcotest.(check int) "min identity" max_int (Timeline.min_on tl ~lo:5 ~hi:5);
  Alcotest.check_raises "bad window" (Invalid_argument "Timeline: bad window") (fun () ->
      ignore (Timeline.min_on tl ~lo:6 ~hi:5))

let test_earliest_fit () =
  let p = Profile.of_steps [ (0, 2); (4, 0); (6, 5) ] in
  let tl = Timeline.of_profile p in
  Alcotest.(check int) "fits at once" 0 (Timeline.earliest_fit_at tl ~from:0 ~dur:3 ~need:2);
  Alcotest.(check int) "must jump the hole" 6 (Timeline.earliest_fit_at tl ~from:0 ~dur:5 ~need:2);
  Alcotest.(check int) "need too high" (-1) (Timeline.earliest_fit_at tl ~from:0 ~dur:1 ~need:6);
  Alcotest.(check int) "far from" 50 (Timeline.earliest_fit_at tl ~from:50 ~dur:4 ~need:5)

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
  Alcotest.(check bool) "reserved" true (Timeline.reserve tl ~start:0 ~dur:3 ~need:4);
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

(* A mark resolves its own scope only. Nested with no change in between,
   an inner mark still cannot close the enclosing scope once its own is
   resolved; an outer mark cannot commit over an open inner scope, and
   rolling it back closes both. *)
let test_marks_own_their_scope () =
  let tl = Timeline.create 4 in
  let outer = Timeline.checkpoint tl in
  let inner = Timeline.checkpoint tl in
  Timeline.rollback tl inner;
  Alcotest.check_raises "inner mark reused"
    (Invalid_argument "Timeline.rollback: stale or non-LIFO mark") (fun () ->
      Timeline.rollback tl inner);
  Alcotest.(check int) "outer scope still open" 1 (Timeline.open_checkpoints tl);
  let inner = Timeline.checkpoint tl in
  Alcotest.(check bool) "reserved" true (Timeline.reserve tl ~start:0 ~dur:2 ~need:3);
  Alcotest.check_raises "outer commit over an open scope"
    (Invalid_argument "Timeline.commit: stale or non-LIFO mark") (fun () ->
      Timeline.commit tl outer);
  ignore (Timeline.checkpoint tl : Timeline.mark);
  Timeline.change tl ~lo:1 ~hi:3 ~delta:(-1);
  Timeline.rollback tl outer;
  Alcotest.(check int) "every scope closed" 0 (Timeline.open_checkpoints tl);
  Alcotest.(check bool) "every change undone" true
    (Profile.equal (Profile.constant 4) (Timeline.to_profile tl));
  Alcotest.check_raises "inner mark after the outer rollback"
    (Invalid_argument "Timeline.commit: stale or non-LIFO mark") (fun () ->
      Timeline.commit tl inner)

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
      if mn >= 1 && not (Timeline.reserve tl ~start ~dur ~need:(Prng.int_incl rng ~lo:1 ~hi:mn))
      then ok := false
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
      (* Up to one past the window's capacity: [reserve] answers [false],
         and changes nothing, exactly where [Profile.reserve] raises. *)
      let need = Prng.int_incl rng ~lo:1 ~hi:(max 1 (mn + 1)) in
      (match Profile.reserve !p ~start ~dur ~need with
      | p' ->
        update ~lo:start p';
        check "reserve made" (Timeline.reserve tl ~start ~dur ~need)
      | exception Invalid_argument _ ->
        check "reserve refused" (not (Timeline.reserve tl ~start ~dur ~need)))
    | 2 ->
      let x = at 100 in
      check "value_at" (Profile.value_at !p x = Timeline.value_at tl x)
    | 3 ->
      let lo = at 60 in
      let hi = lo + Prng.int rng ~bound:(25 * scale) in
      if lo = hi then check "empty min" (Timeline.min_on tl ~lo ~hi = max_int)
      else check "min_on" (Profile.min_on !p ~lo ~hi = Timeline.min_on tl ~lo ~hi)
    | 4 ->
      let from = at 60 and dur = width 10 in
      let need = Prng.int_incl rng ~lo:(-1) ~hi:12 in
      let expect = Option.value (Profile.earliest_fit !p ~from ~dur ~need) ~default:(-1) in
      check "earliest_fit" (Timeline.earliest_fit_at tl ~from ~dur ~need = expect)
    | 5 | 6 -> check "last_breakpoint" (Profile.last_breakpoint !p = Timeline.last_breakpoint tl)
    | 7 ->
      check "final_value" (Profile.final_value !p = Timeline.final_value tl)
    | 8 ->
      if Profile.final_value !p > 0 then begin
        let from = at 60 in
        let area = Prng.int_incl rng ~lo:1 ~hi:(600 * scale) in
        let expect = Resa_oracles.Lower_bounds.min_time_with_area !p ~from ~area in
        check "first_reaching_area (uncapped)"
          (Timeline.first_reaching_area tl ~from ~until:from ~less:0 ~area ~cap:max_int = expect);
        let cap = !org + Prng.int_incl rng ~lo:1 ~hi:(120 * scale) in
        check "first_reaching_area (capped)"
          (Timeline.first_reaching_area tl ~from ~until:from ~less:0 ~area ~cap = min cap expect)
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
  Alcotest.(check bool) "reserved" true (Timeline.reserve tl ~start:50 ~dur:10 ~need:2);
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
  Alcotest.(check bool) "post-gc reserve made" true (Timeline.reserve tl ~start:41 ~dur:4 ~need:1);
  Alcotest.(check int) "post-gc reserve" 2 (Timeline.value_at tl 42);
  Alcotest.(check int) "post-gc earliest_fit" 45 (Timeline.earliest_fit_at tl ~from:41 ~dur:5 ~need:3)

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

(* --- the one-pass change ----------------------------------------------- *)

(* [n] segments 10 apart, alternating 10 and 20. [of_profile] fills each
   block to 12 segments before opening the next, so [12 * b] is the index
   of block [b]'s first segment. *)
let striped n =
  let p = Profile.of_steps (List.init n (fun i -> (10 * i, 10 + (10 * (i mod 2))))) in
  (Timeline.of_profile p, p)

(* Each path of the one-pass change, with [check] and the Profile oracle
   after every step: both ends inside one block; a merge at [lo] where
   [lo] is a block's first segment, which joins the block before; a merge
   at [hi]; a full block split; a window over several blocks; a rollback
   of all of them. *)
let test_change_paths () =
  let tl, p0 = striped 40 in
  let p = ref p0 in
  let step name ~lo ~hi ~delta ~segments =
    let v = Timeline.version tl in
    Timeline.change tl ~lo ~hi ~delta;
    p := Profile.change !p ~lo ~hi ~delta;
    Alcotest.(check bool) (name ^ ": version moves") true (Timeline.version tl <> v);
    Alcotest.(check bool) (name ^ ": valid") true (valid tl);
    Alcotest.(check bool) (name ^ ": = Profile") true (Profile.equal !p (Timeline.to_profile tl));
    Alcotest.(check int) (name ^ ": segments") segments (Timeline.node_count tl)
  in
  let m = Timeline.checkpoint tl in
  step "inside one block" ~lo:13 ~hi:17 ~delta:(-1) ~segments:42;
  (* [120, 130) holds 10 and [110, 120) 20: 120 goes, 125 comes in. *)
  step "merge at a block's first lo" ~lo:120 ~hi:125 ~delta:10 ~segments:42;
  (* [130, 140) holds 20 and [140, 150) 10: 140 goes, 133 comes in. *)
  step "merge at hi" ~lo:133 ~hi:140 ~delta:(-10) ~segments:42;
  step "both ends merge" ~lo:150 ~hi:160 ~delta:(-10) ~segments:40;
  for i = 0 to 3 do
    step "split a full block" ~lo:(21 + (2 * i)) ~hi:(22 + (2 * i)) ~delta:3 ~segments:(42 + (2 * i))
  done;
  (* Block 2 ([240, 360)) grows by one entry per step to 15, then splits
     to take two more. *)
  for i = 0 to 2 do
    step "one new end" ~lo:(245 + (10 * i)) ~hi:(250 + (10 * i)) ~delta:1 ~segments:(49 + i)
  done;
  step "split a block of 15" ~lo:283 ~hi:285 ~delta:1 ~segments:53;
  step "over several blocks" ~lo:5 ~hi:305 ~delta:(-1) ~segments:55;
  step "and back" ~lo:5 ~hi:305 ~delta:1 ~segments:53;
  let v = Timeline.version tl in
  Timeline.rollback tl m;
  Alcotest.(check bool) "rolled back: version moves" true (Timeline.version tl <> v);
  Alcotest.(check bool) "rolled back: valid" true (valid tl);
  Alcotest.(check bool) "rolled back" true (Profile.equal p0 (Timeline.to_profile tl));
  Alcotest.(check int) "rolled back: segments" 40 (Timeline.node_count tl)

(* Randomized: on 20 to 200 striped segments, changes whose ends are
   drawn to be existing breakpoints and whose delta merges them with the
   segment before ([lo]) or makes the changed segment before [hi] equal
   the one at [hi]; windows inside a segment, so both ends split; wide
   windows; reservations; and scopes rolled back. [check] and the Profile
   oracle after every operation. *)
let change_paths_agree seed =
  let rng = Prng.create ~seed in
  let n = Prng.int_incl rng ~lo:20 ~hi:200 in
  let tl, p0 = striped n in
  let p = ref p0 and ok = ref true in
  let check name b =
    if not b then begin
      Printf.eprintf "change paths: %s (seed %d)\n" name seed;
      ok := false
    end
  in
  let breakpoint () =
    let bps = Profile.breakpoints !p in
    bps.(Prng.int_incl rng ~lo:1 ~hi:(Array.length bps - 1))
  in
  let change ~lo ~hi ~delta =
    if lo < hi then begin
      Timeline.change tl ~lo ~hi ~delta;
      p := Profile.change !p ~lo ~hi ~delta
    end
  in
  let op () =
    match Prng.int rng ~bound:6 with
    | 0 ->
      let lo = breakpoint () in
      change ~lo ~hi:(lo + Prng.int_incl rng ~lo:1 ~hi:40)
        ~delta:(Profile.value_at !p (lo - 1) - Profile.value_at !p lo)
    | 1 ->
      let hi = breakpoint () in
      change ~lo:(max 0 (hi - Prng.int_incl rng ~lo:1 ~hi:40)) ~hi
        ~delta:(Profile.value_at !p hi - Profile.value_at !p (hi - 1))
    | 2 ->
      let lo = Prng.int rng ~bound:(10 * n) in
      change ~lo ~hi:(lo + Prng.int_incl rng ~lo:1 ~hi:3) ~delta:(Prng.int_incl rng ~lo:1 ~hi:3)
    | 3 ->
      let lo = Prng.int rng ~bound:(10 * n) in
      change ~lo ~hi:(lo + Prng.int_incl rng ~lo:1 ~hi:(5 * n)) ~delta:(Prng.int_incl rng ~lo:(-3) ~hi:3)
    | 4 ->
      let start = Prng.int rng ~bound:(10 * n) and dur = Prng.int_incl rng ~lo:1 ~hi:30 in
      let need = Prng.int_incl rng ~lo:1 ~hi:12 in
      if Timeline.reserve tl ~start ~dur ~need then
        p := Profile.change !p ~lo:start ~hi:(start + dur) ~delta:(-need)
    | _ ->
      let lo = Prng.int rng ~bound:(10 * n) in
      change ~lo ~hi:(lo + Prng.int_incl rng ~lo:1 ~hi:25) ~delta:(Prng.int_incl rng ~lo:(-4) ~hi:4)
  in
  let verify name =
    check (name ^ ": valid") (valid tl);
    check (name ^ ": = Profile") (Profile.equal !p (Timeline.to_profile tl))
  in
  for _ = 1 to 10 do
    let before = !p and segments = Timeline.node_count tl in
    let m = Timeline.checkpoint tl in
    for _ = 1 to 15 do
      op ();
      verify "speculative op"
    done;
    Timeline.rollback tl m;
    p := before;
    verify "rollback";
    check "rollback: segments" (Timeline.node_count tl = segments);
    for _ = 1 to 15 do
      op ();
      verify "op"
    done
  done;
  !ok

(* Randomized: [reserve_or_fit] on one timeline against [reserve], then
   [earliest_fit_at ~from:start] on a refusal, on a twin that sees the
   same history (gc included; a start below the origin raises). Same
   answers, same segments after; a refusal changes nothing, version
   included, and its answer is also [earliest_fit_at ~from:(start + 1)]:
   no start in [\[start, s)] fits, [start] itself included. Under a
   checkpoint, a reservation made is logged as checked. *)
let reserve_or_fit_agrees seed =
  let rng = Prng.create ~seed in
  let p = Tutil.profile_of_seed seed in
  let a = Timeline.of_profile p and b = Timeline.of_profile p in
  let org = ref 0 and ok = ref true in
  let check name c =
    if not c then begin
      Printf.eprintf "reserve_or_fit: %s (seed %d)\n" name seed;
      ok := false
    end
  in
  for _ = 1 to 60 do
    (match Prng.int rng ~bound:8 with
    | 0 ->
      let lo = !org + Prng.int rng ~bound:60 and len = Prng.int_incl rng ~lo:1 ~hi:20 in
      let delta = Prng.int_incl rng ~lo:(-3) ~hi:3 in
      Timeline.change a ~lo ~hi:(lo + len) ~delta;
      Timeline.change b ~lo ~hi:(lo + len) ~delta
    | 1 ->
      org := !org + Prng.int rng ~bound:4;
      Timeline.gc a ~upto:!org;
      Timeline.gc b ~upto:!org
    | _ ->
      let start = max 0 (!org - 2 + Prng.int rng ~bound:60) and dur = Prng.int_incl rng ~lo:1 ~hi:15 in
      let need = Prng.int_incl rng ~lo:0 ~hi:12 in
      let v = Timeline.version a in
      let spec = Timeline.checkpoint a in
      match Timeline.reserve_or_fit a ~start ~dur ~need with
      | exception Invalid_argument _ ->
        Timeline.rollback a spec;
        check "raises below the origin only" (start < Timeline.origin a)
      | s ->
        let made = s = start in
        check "logged as checked"
          ((not made) || need = 0 || Timeline.spec_op_is_reserve a spec ~i:0 ~start ~dur ~need);
        Timeline.commit a spec;
        let expect =
          if Timeline.reserve b ~start ~dur ~need then start
          else Timeline.earliest_fit_at b ~from:start ~dur ~need
        in
        check "= reserve || earliest_fit_at" (s = expect);
        if made then check "a reservation moves the version" (need = 0 || Timeline.version a <> v)
        else begin
          check "refusal = earliest_fit_at ~from:(start + 1)"
            (s = Timeline.earliest_fit_at b ~from:(start + 1) ~dur ~need);
          check "refusal changes nothing" (Timeline.version a = v)
        end);
    check "same segments" (Profile.equal (Timeline.to_profile a) (Timeline.to_profile b));
    check "valid" (valid a)
  done;
  !ok

let starts inst sched = List.init (Instance.n_jobs inst) (Schedule.start sched)

(* FIFO and a random permutation drawn from the same seed: Bnb's
   incumbent, [resa solve --priority] and the experiments schedule in
   orders other than submission order. *)
let same_schedule name policy reference seed =
  let inst = resa_instance_of_seed seed in
  List.for_all
    (fun priority ->
      let order = Resa_algos.Priority.order priority inst in
      let a = starts inst (Resa_sim.Simulator.run_order ~policy inst order) in
      let b = starts inst (reference inst order) in
      if a <> b then
        Printf.eprintf "%s diverges on seed %d, order %s\n" name seed
          (Resa_algos.Priority.name priority);
      a = b)
    [ Resa_algos.Priority.Fifo; Resa_algos.Priority.Random seed ]

(* [check] holds every two adjacent blocks above half a block. Two layouts
   that need [rebalance]'s both folds: a merge with the next block that
   leaves the merged block small beside the previous one, and a split that
   cuts off a small block beside a small last block. *)
let test_blocks_stay_full () =
  (* 25 segments in blocks of 12, 12 and 1. Flattening a segment between
     two equal ones drops two breakpoints: block 0 goes to 2, block 1 to 8,
     then block 0 to 1, so the blocks hold 1, 8 and 1. Dropping two more
     from block 1 leaves 6, folded into the last block to make 7, which
     must then be folded into block 0. *)
  let n = 25 in
  let tl, _ = striped n in
  let step lo hi delta segments =
    Timeline.change tl ~lo ~hi ~delta;
    Timeline.check tl;
    Alcotest.(check int) (Printf.sprintf "segments after [%d, %d)" lo hi) segments
      (Timeline.node_count tl)
  in
  List.iteri (fun k i -> step (10 * i) ((10 * i) + 10) (-10) (23 - (2 * k))) [ 1; 3; 5; 7; 9 ];
  step 130 140 (-10) 13;
  step 150 160 (-10) 11;
  step 0 110 10 10;
  step 190 200 (-10) 8;
  (* A seed whose split cuts off 7 segments beside a 1-segment last block. *)
  Alcotest.(check bool) "split beside a small block" true (change_paths_agree 2113754420272688638)

(* --- the area walk with a hole ------------------------------------------ *)

(* [first_reaching_area] with a hole ([less] taken on [\[from, until)])
   must answer what the walk with no hole answers on a copy with that
   change made: on random timelines, half of them gc'd, with [from] below
   the origin too, capped and not. Every case must come up: area 0, a cap
   that cuts the walk, a hole that ends before the answer and one that
   ends past it, and a hole that reaches the tail. *)
let test_hole_walk () =
  let zero = ref 0 and capped = ref 0 and before = ref 0 and past = ref 0 and tail = ref 0 in
  for seed = 0 to 299 do
    let rng = Prng.create ~seed in
    let lift = Profile.constant (Prng.int rng ~bound:3) in
    let tl = Timeline.of_profile (Profile.add (Tutil.profile_of_seed seed) lift) in
    for _ = 1 to Prng.int rng ~bound:20 do
      let lo = Prng.int rng ~bound:60 and len = Prng.int_incl rng ~lo:1 ~hi:25 in
      Timeline.change tl ~lo ~hi:(lo + len) ~delta:(Prng.int_incl rng ~lo:0 ~hi:4)
    done;
    if Prng.bool rng then Timeline.gc tl ~upto:(Prng.int rng ~bound:40);
    for _ = 1 to 10 do
      let from = Prng.int rng ~bound:70 in
      let until = from + Prng.int rng ~bound:(if Prng.int rng ~bound:4 = 0 then 90 else 15) in
      let less = Prng.int_incl rng ~lo:0 ~hi:4 in
      let area = if Prng.int rng ~bound:8 = 0 then 0 else Prng.int_incl rng ~lo:1 ~hi:300 in
      let cap = if Prng.bool rng then max_int else from + Prng.int rng ~bound:60 in
      let c = Timeline.copy tl in
      Timeline.change c ~lo:from ~hi:until ~delta:(-less);
      let plain cap = Timeline.first_reaching_area c ~from ~until:from ~less:0 ~area ~cap in
      let holed cap = Timeline.first_reaching_area tl ~from ~until ~less ~area ~cap in
      let answer = plain max_int in
      if holed max_int <> answer || holed cap <> plain cap then
        Alcotest.failf
          "seed %d: from %d until %d less %d area %d cap %d: %d (capped %d), %d (capped %d) after \
           the change"
          seed from until less area cap (holed max_int) (holed cap) answer (plain cap);
      let hole = less > 0 && until > from && area > 0 in
      if area = 0 then incr zero;
      if cap < answer then incr capped;
      if hole && until < answer then incr before;
      if hole && until > answer then incr past;
      if hole && until > Timeline.last_breakpoint tl then incr tail
    done
  done;
  List.iter
    (fun (case, n) -> Alcotest.(check bool) (case ^ " comes up") true (n > 0))
    [
      ("area 0", !zero);
      ("a cap that cuts the walk", !capped);
      ("a hole ending before the answer", !before);
      ("a hole ending past the answer", !past);
      ("a hole reaching the tail", !tail);
    ]

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
      (same_schedule "lsrc" Resa_sim.Policy.aggressive Resa_oracles.Lsrc.run_order_reference);
    Tutil.qcheck ~count:300 "FCFS = Profile-backed FCFS" Tutil.seed_arb
      (same_schedule "fcfs" Resa_sim.Policy.fcfs Resa_oracles.Fcfs.run_order_reference);
    Tutil.qcheck ~count:300 "conservative = Profile-backed conservative" Tutil.seed_arb
      (same_schedule "conservative" Resa_sim.Policy.conservative
         Resa_oracles.Backfill.conservative_order_reference);
    Tutil.qcheck ~count:300 "EASY = Profile-backed EASY" Tutil.seed_arb
      (same_schedule "easy" Resa_sim.Policy.easy Resa_oracles.Backfill.easy_order_reference);
    Alcotest.test_case "marks resolve only their own scope" `Quick test_marks_own_their_scope;
    Alcotest.test_case "one-pass change: every path" `Quick test_change_paths;
    Tutil.qcheck ~count:200 "one-pass change paths match Profile, with rollback" Tutil.seed_arb
      change_paths_agree;
    Tutil.qcheck ~count:1000 "reserve_or_fit = reserve || earliest_fit_at" Tutil.seed_arb
      reserve_or_fit_agrees;
    Alcotest.test_case "blocks stay over half full beside small ones" `Quick test_blocks_stay_full;
    Alcotest.test_case "area walk with a hole = walk after the change" `Quick test_hole_walk;
  ]
