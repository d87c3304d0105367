(* Output checks that hold for any seed. run.py adds the cross-run ones:
   repetitions and the traced run agree bit for bit, and the committed
   expected values match on the reference seed. *)

open Resa_core
module Sim = Resa_sim.Simulator
module Stream = Resa_sim.Metrics.Stream

type digest = {
  jobs : int;
  makespan : int;
  mean_wait : float;
  max_wait : int;
  mean_bsld : float;
  utilization : float;
  wait_p50 : float;
  wait_p95 : float;
}

let digest (stats : Sim.stream_stats) ms =
  let s = Stream.summary ms in
  {
    jobs = stats.jobs;
    makespan = stats.makespan;
    mean_wait = s.mean_wait;
    max_wait = s.max_wait;
    mean_bsld = s.mean_bounded_slowdown;
    utilization = s.utilization;
    wait_p50 = Stream.wait_p50 ms;
    wait_p95 = Stream.wait_p95 ms;
  }

let digest_fields d =
  let f x = Printf.sprintf "%.17g" x and i = string_of_int in
  [
    ("jobs", i d.jobs);
    ("makespan", i d.makespan);
    ("mean_wait", f d.mean_wait);
    ("max_wait", i d.max_wait);
    ("mean_bounded_slowdown", f d.mean_bsld);
    ("utilization", f d.utilization);
    ("wait_p50", f d.wait_p50);
    ("wait_p95", f d.wait_p95);
  ]

(* A digest against its input: every job ran once, for its whole runtime
   and width (the utilization is recomputed from the input's work area),
   and no schedule ends before the input's lower bounds. *)
let against_manifest (part : Workload.part) (man : Workload.manifest) d =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if d.jobs <> man.jobs then fail "%d jobs simulated, input has %d" d.jobs man.jobs;
  if d.makespan < man.release_end then
    fail "makespan %d before the last release end %d" d.makespan man.release_end;
  if d.makespan * part.machine < man.area then fail "makespan %d below the area bound" d.makespan;
  let avail = Instance.availability_of ~m:part.machine ~reservations:part.resv in
  let util = float_of_int man.area /. float_of_int (Profile.integral_on avail ~lo:0 ~hi:d.makespan) in
  if d.utilization <> util then fail "utilization %.17g, input work gives %.17g" d.utilization util;
  if not (d.mean_wait >= 0. && float_of_int d.max_wait >= d.mean_wait) then
    fail "mean wait %g outside [0, max wait %d]" d.mean_wait d.max_wait;
  if not (d.mean_bsld >= 1.) then fail "mean bounded slowdown %g below 1" d.mean_bsld;
  List.iter
    (fun (name, v) ->
      if not (v >= 0. && v <= float_of_int d.max_wait) then
        fail "%s %g outside [0, max wait %d]" name v d.max_wait)
    [ ("wait p50", d.wait_p50); ("wait p95", d.wait_p95) ];
  List.rev !errs

(* Independent audit of a traced part's starts: each job starts once, not
   before its submission; at no instant do running jobs and reservations
   use more than the machine; FCFS starts in submission order. *)
let audit ~fcfs (l : Layers.log) =
  let module B = Layers.Ibuf in
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let k = B.length l.start in
  let seen = Hashtbl.create k in
  for i = 0 to k - 1 do
    let id = B.get l.id i in
    if Hashtbl.mem seen id then fail "job %d started twice" id;
    Hashtbl.replace seen id ();
    if B.get l.start i < B.get l.submit i then fail "job %d starts before its submission" id;
    if fcfs && i > 0 && id < B.get l.id (i - 1) then fail "FCFS started job %d after a later job" id
  done;
  (* Releases sort before acquisitions at the same instant. *)
  let events =
    Array.append
      (Array.init (2 * k) (fun e ->
           let i = e / 2 in
           if e mod 2 = 0 then (B.get l.start i, B.get l.q i) else (Layers.finish l i, -B.get l.q i)))
      (Array.of_list
         (List.concat_map
            (fun r -> [ (Reservation.start r, Reservation.q r); (Reservation.stop r, -Reservation.q r) ])
            l.resv))
  in
  Array.sort compare events;
  let used = ref 0 and worst = ref (-1, 0) in
  Array.iter
    (fun (t, d) ->
      used := !used + d;
      if !used > l.machine && !used > snd !worst then worst := (t, !used))
    events;
  (match !worst with
  | -1, _ -> ()
  | t, u -> fail "%d processors in use at t=%d on a %d-processor machine" u t l.machine);
  List.rev !errs
