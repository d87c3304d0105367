(* Differential suite for the engine's one priority queue against a
   sorted-list model: the event queue (Eventq, a (time, seq) wrapper over
   Int_heap) under operation mixes with heavy same-time ties, far-apart
   times and pushes before the earliest queued event, and Int_heap on its
   own. The named cases below pin the FIFO contract across far-apart
   times and across a push before every queued event. *)

open Resa_core
open Resa_sim

(* List model: (time, seq, payload), pop = lexicographic min on
   (time, seq) — exactly the documented FIFO-on-ties contract. *)

let model_min m =
  List.fold_left
    (fun ((bt, bs, _) as best) ((t, s, _) as c) ->
      if t < bt || (t = bt && s < bs) then c else best)
    (List.hd m) m

let model_remove m ((_, s, _) : int * int * int) =
  List.filter (fun (_, s', _) -> s' <> s) m

let eventq_matches_model seed =
  let rng = Prng.create ~seed in
  let q = Eventq.create () in
  let model = ref [] in
  let seq = ref 0 in
  let last = ref 0 in
  let ok = ref true in
  for _step = 0 to 600 do
    let r = Prng.int rng ~bound:100 in
    if r < 55 || !model = [] then begin
      (* Four time regimes: dense ties near zero (behind the clock once
         it has advanced), just ahead of the last pop, far ahead of it,
         and just behind it. *)
      let time =
        match Prng.int rng ~bound:4 with
        | 0 -> Prng.int rng ~bound:64
        | 1 -> !last + Prng.int rng ~bound:1000
        | 2 -> !last + 30_000 + Prng.int rng ~bound:200_000
        | _ -> max 0 (!last - Prng.int rng ~bound:1000)
      in
      let pay = Prng.int rng ~bound:1_000_000 in
      Eventq.push q ~time pay;
      model := (time, !seq, pay) :: !model;
      incr seq
    end
    else begin
      let ((mt, _, mp) as min) = model_min !model in
      model := model_remove !model min;
      if Eventq.peek_time q <> mt then ok := false;
      if Eventq.pop q <> mp then ok := false;
      last := mt
    end;
    if Eventq.size q <> List.length !model then ok := false;
    if Eventq.is_empty q <> (!model = []) then ok := false;
    let want_peek = if !model = [] then -1 else (fun (t, _, _) -> t) (model_min !model) in
    if Eventq.peek_time q <> want_peek then ok := false
  done;
  (* Drain whatever is left, still in lockstep. *)
  while !model <> [] do
    let ((_, _, mp) as min) = model_min !model in
    model := model_remove !model min;
    if Eventq.pop q <> mp then ok := false
  done;
  if not (Eventq.is_empty q) then ok := false;
  !ok

let prop_model =
  Tutil.qcheck ~count:300 "Eventq = sorted-list model" Tutil.seed_arb eventq_matches_model

(* Int_heap on its own: random keys with heavy ties broken by the tie
   field, pops interleaved with pushes. *)
let int_heap_matches_model seed =
  let rng = Prng.create ~seed in
  let h = Int_heap.create () in
  let model = ref [] in
  let ok = ref true in
  let model_min () =
    List.fold_left (fun a b -> if compare b a < 0 then b else a) (List.hd !model) !model
  in
  let check_min () =
    match !model with
    | [] -> if Int_heap.length h <> 0 then ok := false
    | _ ->
      let k, _, v = model_min () in
      if Int_heap.min_key h <> k || Int_heap.min_value h <> v then ok := false
  in
  for step = 0 to 400 do
    if Prng.int rng ~bound:100 < 60 || !model = [] then begin
      (* Unique ties in random order, so the model's minimum is unambiguous. *)
      let key = Prng.int rng ~bound:20 and tie = (Prng.int rng ~bound:1000 * 1000) + step in
      let value = Prng.int rng ~bound:1_000_000 in
      Int_heap.push h ~key ~tie value;
      model := (key, tie, value) :: !model
    end
    else begin
      (* [check_min] has matched the heap's minimum to this tuple. *)
      let least = model_min () in
      Int_heap.drop_min h;
      let rec remove = function
        | [] -> []
        | x :: rest -> if x = least then rest else x :: remove rest
      in
      model := remove !model
    end;
    if Int_heap.length h <> List.length !model then ok := false;
    check_min ()
  done;
  !ok

let prop_int_heap =
  Tutil.qcheck ~count:200 "Int_heap = sorted-list model" Tutil.seed_arb int_heap_matches_model

let test_fifo_ties () =
  let q = Eventq.create () in
  List.iter (fun (t, p) -> Eventq.push q ~time:t p) [ (5, 10); (5, 11); (1, 12); (5, 13) ];
  (* Tuple and list literals evaluate right-to-left: sequence explicitly. *)
  let pop () =
    let t = Eventq.peek_time q in
    let p = Eventq.pop q in
    (t, p)
  in
  let pops = List.init 4 (fun _ -> pop ()) in
  Alcotest.(check (list (pair int int)))
    "time order, FIFO on ties"
    [ (1, 12); (5, 10); (5, 11); (5, 13) ]
    pops;
  Alcotest.(check int) "empty peek" (-1) (Eventq.peek_time q)

(* Same-time pushes far beyond the earliest event, and a fourth push at
   that time after the earlier event has popped: FIFO must hold across
   the gap. *)
let test_fifo_across_migration () =
  let q = Eventq.create () in
  Eventq.push q ~time:0 0;
  let far_t = 40_000 in
  List.iter (fun p -> Eventq.push q ~time:far_t p) [ 1; 2; 3 ];
  Alcotest.(check int) "near min first" 0 (Eventq.pop q);
  Alcotest.(check int) "cursor advances to far min" far_t (Eventq.peek_time q);
  Eventq.push q ~time:far_t 4;
  Alcotest.(check (list int)) "seq order across migration" [ 1; 2; 3; 4 ]
    (List.init 4 (fun _ -> Eventq.pop q))

let test_rebase () =
  let q = Eventq.create () in
  Eventq.push q ~time:100_000 1;
  Eventq.push q ~time:100_000 2;
  Eventq.push q ~time:170_000 3;
  (* A push before every queued event becomes the new minimum without
     disturbing the FIFO order of the later ones. *)
  Eventq.push q ~time:10 4;
  Alcotest.(check int) "rewound min" 10 (Eventq.peek_time q);
  Alcotest.(check (list int)) "order preserved through rebase" [ 4; 1; 2; 3 ]
    (List.init 4 (fun _ -> Eventq.pop q))

let test_errors () =
  let q = Eventq.create () in
  Alcotest.check_raises "negative time" (Invalid_argument "Eventq.push: negative time")
    (fun () -> Eventq.push q ~time:(-1) 0);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Eventq.pop: empty") (fun () ->
      ignore (Eventq.pop q : int))

let suite =
  [
    Alcotest.test_case "FIFO tie-break by push order" `Quick test_fifo_ties;
    Alcotest.test_case "FIFO across heap-to-bucket migration" `Quick test_fifo_across_migration;
    Alcotest.test_case "push before the cursor rebases the window" `Quick test_rebase;
    Alcotest.test_case "error contracts" `Quick test_errors;
    prop_model;
    prop_int_heap;
  ]
