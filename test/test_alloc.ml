(* Allocation budgets of the replay hot path, in minor words. The engine
   owns no per-event allocation beyond what its interfaces fix — the
   estimated job and the slot-table bucket made at admit, one cons cell per
   started job in the policy's answer, and the record handed to
   [on_record] — so a closure, a ref or a boxed float slipping back into
   the loop shows up here as a budget overrun, on any machine. *)

open Resa_core
open Resa_sim

(* Minor words allocated by [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* 20k jobs on m=64 (runtimes up to 400, mean gap 40, walltimes
   overestimated 2x on average: utilization ~0.45, a stable queue), pulled
   from pre-built [Some] cells so the source allocates nothing. *)
let arrivals =
  lazy
    (let src =
       Resa_swf.Swf_stream.synthetic ~overestimate:2.0 (Prng.create ~seed:4242) ~m:64 ~n:20_000
         ~max_runtime:400 ~mean_gap:40.0
     in
     let rec go acc =
       match src () with
       | None -> Array.of_list (List.rev acc)
       | Some (a : Resa_swf.Swf_stream.arrival) ->
         go (Some Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate } :: acc)
     in
     go [])

let words_per_event policy =
  let arr = Lazy.force arrivals in
  let i = ref 0 in
  let next () =
    if !i >= Array.length arr then None
    else begin
      let a = arr.(!i) in
      incr i;
      a
    end
  in
  let on_record (_ : Simulator.record) = () in
  let stats = ref None in
  let words =
    Tutil.without_metrics (fun () ->
        minor_words (fun () ->
            stats := Some (Simulator.run_stream ~on_record ~policy ~m:64 next)))
  in
  let jobs = (Option.get !stats).Simulator.jobs in
  words /. float_of_int (2 * jobs)

let test_replay_budget (policy, budget) () =
  let w = words_per_event policy in
  if w > budget then
    Alcotest.failf "%s allocates %.2f minor words/event, budget %.0f" policy.Policy.name w budget

let budgets =
  [ (Policy.fcfs, 10.); (Policy.easy, 10.); (Policy.aggressive, 10.); (Policy.conservative, 24.) ]

let test_stream_observe_budget () =
  let n = 100_000 in
  let rng = Prng.create ~seed:7 in
  let records =
    Array.init n (fun i ->
        let p = Prng.int_incl rng ~lo:1 ~hi:500 and submit = 10 * i in
        Simulator.
          {
            job = Job.make ~id:i ~p ~q:(Prng.int_incl rng ~lo:1 ~hi:16);
            submit;
            start = submit + Prng.int_incl rng ~lo:0 ~hi:2000;
          })
  in
  let ms = Metrics.Stream.create ~m:16 ~reservations:[] () in
  (* Warm the sketches and the summation partials, so growth of their
     arrays is not charged to the steady state. *)
  Array.iteri (fun i r -> if i < 1000 then Metrics.Stream.observe ms r) records;
  let words =
    minor_words (fun () ->
        for i = 1000 to n - 1 do
          Metrics.Stream.observe ms records.(i)
        done)
  in
  let per = words /. float_of_int (n - 1000) in
  if per > 0.05 then Alcotest.failf "Metrics.Stream.observe allocates %.3f words/record" per

let suite =
  List.map
    (fun ((p : Policy.t), budget) ->
      Alcotest.test_case
        (Printf.sprintf "%s replay within %.0f words/event" p.name budget)
        `Quick (test_replay_budget (p, budget)))
    budgets
  @ [ Alcotest.test_case "Metrics.Stream.observe allocation-free" `Quick test_stream_observe_budget ]
