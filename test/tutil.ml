(* Shared helpers and QCheck generators for the test suites. *)

open Resa_core
module Profile = Resa_oracles.Profile_oracle

let check_feasible name inst sched =
  match Schedule.validate inst sched with
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s: infeasible schedule: %a" name Schedule.pp_violation v

(* Run [f] with the metrics registry on and zeroed. The switch and the
   registry are left as found (zeroed again): the byte-identity tests rely
   on collection staying off. *)
let with_metrics f =
  let module M = Resa_obs.Metrics in
  let was = M.enabled () in
  M.enable ();
  M.reset ();
  Fun.protect
    ~finally:(fun () ->
      M.reset ();
      if not was then M.disable ())
    f

let without_metrics f =
  let module M = Resa_obs.Metrics in
  let was = M.enabled () in
  M.disable ();
  Fun.protect ~finally:(fun () -> if was then M.enable ()) f

(* A registry counter's current value, 0 when never registered. *)
let counter name =
  match List.assoc_opt name (Resa_obs.Metrics.snapshot ()) with
  | Some (Resa_obs.Metrics.Counter_v v) -> v
  | _ -> 0

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Instances are generated from a seed so they print and shrink as ints. *)
let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(map abs int)

let small_rigid_of_seed seed =
  (* Reservation-free, m <= 8, n <= 8: within reach of the exact solver. *)
  let rng = Prng.create ~seed in
  let m = Prng.int_incl rng ~lo:1 ~hi:8 in
  let n = Prng.int_incl rng ~lo:1 ~hi:8 in
  let jobs =
    List.init n (fun i ->
        Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:9) ~q:(Prng.int_incl rng ~lo:1 ~hi:m))
  in
  Instance.create_exn ~m ~jobs ~reservations:[]

let small_resa_of_seed seed =
  (* With reservations, still exact-solver sized. *)
  let rng = Prng.create ~seed in
  let m = Prng.int_incl rng ~lo:2 ~hi:8 in
  let n = Prng.int_incl rng ~lo:1 ~hi:6 in
  let jobs =
    List.init n (fun i ->
        Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:8) ~q:(Prng.int_incl rng ~lo:1 ~hi:m))
  in
  let n_res = Prng.int_incl rng ~lo:0 ~hi:3 in
  let reservations = ref [] in
  let u = ref (Profile.constant 0) in
  for i = 0 to n_res - 1 do
    let start = Prng.int rng ~bound:20 in
    let p = Prng.int_incl rng ~lo:1 ~hi:8 in
    let q = Prng.int_incl rng ~lo:1 ~hi:m in
    let u' = Profile.change !u ~lo:start ~hi:(start + p) ~delta:q in
    if Profile.max_value u' <= m - 1 then begin
      (* Keep one processor always free so every job can eventually run. *)
      u := u';
      reservations := Reservation.make ~id:i ~start ~p ~q :: !reservations
    end
  done;
  Instance.create_exn ~m ~jobs ~reservations:!reservations

(* The branch and bound's makespan, [Some] only when proved optimal within
   the node budget. *)
let optimal_makespan ?node_limit inst =
  let r = Resa_exact.Bnb.solve ?node_limit inst in
  if r.optimal then Some r.makespan else None

let medium_alpha_of_seed ~alpha seed =
  let rng = Prng.create ~seed in
  let m = 4 * Prng.int_incl rng ~lo:2 ~hi:8 in
  let n = Prng.int_incl rng ~lo:5 ~hi:40 in
  Resa_gen.Random_inst.alpha_restricted rng ~m ~n ~alpha ~pmax:10 ()

let profile_of_seed seed =
  (* Arbitrary non-negative step function. *)
  let rng = Prng.create ~seed in
  let n_events = Prng.int_incl rng ~lo:0 ~hi:12 in
  let deltas =
    List.init n_events (fun _ ->
        (Prng.int rng ~bound:30, Prng.int_incl rng ~lo:(-3) ~hi:3))
  in
  let base = Prng.int_incl rng ~lo:0 ~hi:10 in
  let p = Profile.of_events ~base deltas in
  (* Shift up so it is capacity-like (non-negative). *)
  let lift = max 0 (-Profile.min_value p) in
  Profile.add p (Profile.constant lift)

(* A trace sink that keeps every event it is handed, and a reader of what it
   kept so far, in emission order. *)
let recorder () =
  let events = ref [] in
  (Resa_obs.Trace.sink (fun ev -> events := ev :: !events), fun () -> List.rev !events)

(* Whether [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* [n] sorted arrival times uniform over [\[0, horizon)]. *)
let uniform_arrivals rng ~n ~horizon =
  let a = Array.init n (fun _ -> Prng.int rng ~bound:horizon) in
  Array.sort Int.compare a;
  a

(* What a writer puts on a channel, read back from a temporary file. *)
let written f =
  let path = Filename.temp_file "resa_test" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path f;
      In_channel.with_open_bin path In_channel.input_all)

(* Trace events as the JSONL text [Trace.output] writes, a newline after
   each line; [trace_line] is one event's line without it. *)
let trace_text ?run events = written (fun oc -> List.iter (Resa_obs.Trace.output oc ?run) events)

let trace_line ?run ev =
  let s = trace_text ?run [ ev ] in
  String.sub s 0 (String.length s - 1)

(* An arrival whose walltime request is exact. *)
let exact job submit = Resa_sim.Simulator.{ job; submit; estimate = Job.p job }

(* [arrivals], in submit order, through [Simulator.run_stream]: the run's
   stats and its records, in start order. *)
let simulate ?obs ~policy ~m ?reservations arrivals =
  let rest = ref arrivals and records = ref [] in
  let next () =
    match !rest with
    | [] -> None
    | a :: tl ->
      rest := tl;
      Some a
  in
  let stats =
    Resa_sim.Simulator.run_stream ?obs
      ~on_record:(fun r -> records := r :: !records)
      ~policy ~m ?reservations next
  in
  (stats, List.rev !records)

(* Records of jobs numbered 0 .. n-1, in id order; [starts_by_id] is their
   starts. *)
let by_id records =
  let a = Array.of_list records in
  List.iter (fun (r : Resa_sim.Simulator.record) -> a.(Job.id r.job) <- r) records;
  Array.to_list a

let starts_by_id records =
  List.map (fun (r : Resa_sim.Simulator.record) -> r.start) (by_id records)

(* The execution the records describe, release dates forgotten: job [i] is
   the [i]-th record, started at its start, on [m] processors with
   [reservations]. *)
let executed ~m ~reservations records =
  let jobs =
    List.mapi
      (fun i (r : Resa_sim.Simulator.record) -> Job.make ~id:i ~p:(Job.p r.job) ~q:(Job.q r.job))
      records
  in
  ( Instance.create_exn ~m ~jobs ~reservations,
    Schedule.make
      (Array.of_list (List.map (fun (r : Resa_sim.Simulator.record) -> r.start) records)) )

(* [Metrics.Stream]'s summary of the records, observed in list order. *)
let summary ~m ?(reservations = []) records =
  let ms = Resa_sim.Metrics.Stream.create ~m ~reservations () in
  List.iter (Resa_sim.Metrics.Stream.observe ms) records;
  Resa_sim.Metrics.Stream.summary ms

(* A synthetic stream's arrivals as the SWF entries [resa trace] writes. *)
let synthetic_entries ?overestimate rng ~m ~n ~max_runtime ~mean_gap =
  Resa_swf.Swf_stream.synthetic ?overestimate rng ~m ~n ~max_runtime ~mean_gap
  |> Seq.of_dispenser
  |> Seq.map Resa_swf.Swf.entry_of_arrival
  |> List.of_seq

(* SWF text: [';'] comment lines, then one line per entry. *)
let swf_text ?(comments = []) entries =
  String.concat ""
    (List.map (fun c -> "; " ^ c ^ "\n") comments
    @ List.map (fun e -> Resa_swf.Swf.to_line e ^ "\n") entries)
