open Resa_core
module Stats = Resa_stats.Stats

type summary = {
  n : int;
  makespan : int;
  mean_wait : float;
  max_wait : int;
  mean_slowdown : float;
  mean_bounded_slowdown : float;
  utilization : float;
}

type job_row = {
  id : int;
  job_number : int;
  submit : int;
  start : int;
  wait : int;
  finish : int;
  p : int;
  q : int;
  slowdown : float;
  bounded_slowdown : float;
  provenance : string;
}

(* The bounded-slowdown runtime threshold, in the simulator's time unit. *)
let bound = 10

let per_job ?provenance ?job_numbers (trace : Simulator.trace) =
  let provenance = match provenance with Some f -> f | None -> fun _ -> "" in
  let number =
    match job_numbers with Some a -> fun id -> a.(id) | None -> fun id -> id
  in
  List.map
    (fun (r : Simulator.record) ->
      let p = Job.p r.job and q = Job.q r.job in
      let wait = r.start - r.submit in
      {
        id = Job.id r.job;
        job_number = number (Job.id r.job);
        submit = r.submit;
        start = r.start;
        wait;
        finish = r.start + p;
        p;
        q;
        slowdown = float_of_int (wait + p) /. float_of_int p;
        bounded_slowdown = Float.max 1.0 (float_of_int (wait + p) /. float_of_int (max p bound));
        provenance = provenance (Job.id r.job);
      })
    trace.records

let per_job_csv ?run rows =
  let b = Buffer.create (64 * (List.length rows + 1)) in
  let run_col = match run with Some _ -> "run," | None -> "" in
  Buffer.add_string b
    (run_col ^ "job,job_number,submit,start,wait,finish,p,q,slowdown,bounded_slowdown,provenance\n");
  List.iter
    (fun r ->
      (match run with Some name -> Buffer.add_string b (name ^ ",") | None -> ());
      Buffer.add_string b
        (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%.6g,%.6g,%s\n" r.id r.job_number r.submit
           r.start r.wait r.finish r.p r.q r.slowdown r.bounded_slowdown r.provenance))
    rows;
  Buffer.contents b

let empty_summary =
  (* Degenerate on purpose: means over zero jobs are set to their neutral
     values and utilization — work over zero elapsed time — to [nan]. *)
  {
    n = 0;
    makespan = 0;
    mean_wait = 0.;
    max_wait = 0;
    mean_slowdown = 1.;
    mean_bounded_slowdown = 1.;
    utilization = Float.nan;
  }

(* Shared accumulation kernel for the batch and streaming paths. Waits and
   work areas are summed in exact integer arithmetic; slowdown sums use the
   exactly-rounded [Stats.Fsum], whose total is independent of insertion
   order — that is what makes the streaming summary (records observed in
   start order) bit-identical to the batch one (records in submission
   order). *)
type acc = {
  m : int;
  reservations : Reservation.t list; (* with [m], the utilization denominator *)
  mutable n : int;
  mutable makespan : int;
  mutable wait_sum : int;
  mutable max_wait : int;
  mutable work : int;
  slow : Stats.Fsum.t;
  bslow : Stats.Fsum.t;
}

let acc_create ~m ~reservations =
  {
    m;
    reservations;
    n = 0;
    makespan = 0;
    wait_sum = 0;
    max_wait = 0;
    work = 0;
    slow = Stats.Fsum.create ();
    bslow = Stats.Fsum.create ();
  }

let acc_observe a (r : Simulator.record) =
  let p = Job.p r.job and q = Job.q r.job in
  let wait = r.start - r.submit in
  a.n <- a.n + 1;
  if r.start + p > a.makespan then a.makespan <- r.start + p;
  a.wait_sum <- a.wait_sum + wait;
  if wait > a.max_wait then a.max_wait <- wait;
  a.work <- a.work + (p * q);
  (* Integer operands, divided inside [Stats]: no float is boxed on the way.
     With b = max p bound > 0, max 1 ((wait+p)/b) = (max (wait+p) b)/b
     exactly — b/b is 1.0, and the quotient is >= 1.0 whenever wait+p >= b. *)
  Stats.Fsum.add_ratio a.slow (wait + p) p;
  let b = max p bound in
  Stats.Fsum.add_ratio a.bslow (max (wait + p) b) b

(* Available processor·time on [\[0, c)]: m·c less each reservation's
   blocked area inside the window, in exact integers — the integral of
   [m − U(t)] without building it. *)
let avail_area a c =
  List.fold_left
    (fun acc r ->
      let inside = min (Reservation.stop r) c - Reservation.start r in
      if inside > 0 then acc - (Reservation.q r * inside) else acc)
    (a.m * c) a.reservations

let acc_summary a =
  if a.n = 0 then empty_summary
  else begin
    let fn = float_of_int a.n in
    let utilization =
      (* [Schedule.utilization] verbatim, without rebuilding the schedule:
         work over available area on [0, makespan). *)
      if a.makespan = 0 then 1.0
      else
        let avail_area = avail_area a a.makespan in
        if avail_area = 0 then 1.0 else float_of_int a.work /. float_of_int avail_area
    in
    {
      n = a.n;
      makespan = a.makespan;
      mean_wait = float_of_int a.wait_sum /. fn;
      max_wait = a.max_wait;
      mean_slowdown = Stats.Fsum.total a.slow /. fn;
      mean_bounded_slowdown = Stats.Fsum.total a.bslow /. fn;
      utilization;
    }
  end

let summarize (trace : Simulator.trace) =
  let a = acc_create ~m:trace.m ~reservations:trace.reservations in
  List.iter (acc_observe a) trace.records;
  let s = acc_summary a in
  (* The trace's makespan is definitionally max (start + p); keep using it
     so a summary never disagrees with its trace. *)
  if s.n = 0 then s else { s with makespan = trace.makespan }

module Stream = struct
  type t = { a : acc; wait_p50 : Stats.P2.t; wait_p95 : Stats.P2.t }

  let create ~m ~reservations () =
    {
      a = acc_create ~m ~reservations;
      wait_p50 = Stats.P2.create ~q:0.5;
      wait_p95 = Stats.P2.create ~q:0.95;
    }

  let observe t r =
    acc_observe t.a r;
    let wait = r.Simulator.start - r.Simulator.submit in
    Stats.P2.add_int t.wait_p50 wait;
    Stats.P2.add_int t.wait_p95 wait

  let count t = t.a.n
  let summary t = acc_summary t.a
  let wait_p50 t = Stats.P2.value t.wait_p50
  let wait_p95 t = Stats.P2.value t.wait_p95
end

let header =
  Printf.sprintf "%-8s %6s %10s %8s %8s %10s %6s" "policy" "Cmax" "mean_wait" "max_wait"
    "slowdn" "bnd_slowdn" "util"

let row ~name (s : summary) =
  Printf.sprintf "%-8s %6d %10.1f %8d %8.2f %10.2f %6.3f" name s.makespan s.mean_wait s.max_wait
    s.mean_slowdown s.mean_bounded_slowdown s.utilization
