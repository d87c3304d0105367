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

let per_job ?provenance ?job_numbers records =
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
    records

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

module Stream = struct
  (* Waits and work areas are summed in exact integer arithmetic; slowdown
     sums use the exactly-rounded [Stats.Fsum], whose total is independent
     of insertion order — so the summary of a set of records does not
     depend on the order they are observed in (start order in a replay,
     submission order in a list). *)
  type t = {
    m : int;
    reservations : Reservation.t list; (* with [m], the utilization denominator *)
    mutable n : int;
    mutable makespan : int;
    mutable wait_sum : int;
    mutable max_wait : int;
    mutable work : int;
    slow : Stats.Fsum.t;
    bslow : Stats.Fsum.t;
    wait_p50 : Stats.P2.t;
    wait_p95 : Stats.P2.t;
  }

  let create ~m ~reservations () =
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
      wait_p50 = Stats.P2.create ~q:0.5;
      wait_p95 = Stats.P2.create ~q:0.95;
    }

  let observe t (r : Simulator.record) =
    let p = Job.p r.job and q = Job.q r.job in
    let wait = r.start - r.submit in
    t.n <- t.n + 1;
    if r.start + p > t.makespan then t.makespan <- r.start + p;
    t.wait_sum <- t.wait_sum + wait;
    if wait > t.max_wait then t.max_wait <- wait;
    t.work <- t.work + (p * q);
    (* Integer operands, divided inside [Stats]: no float is boxed on the
       way. With b = max p bound > 0, max 1 ((wait+p)/b) = (max (wait+p)
       b)/b exactly — b/b is 1.0, and the quotient is >= 1.0 whenever
       wait+p >= b. *)
    Stats.Fsum.add_ratio t.slow (wait + p) p;
    let b = max p bound in
    Stats.Fsum.add_ratio t.bslow (max (wait + p) b) b;
    Stats.P2.add_int t.wait_p50 wait;
    Stats.P2.add_int t.wait_p95 wait

  (* Available processor·time on [\[0, c)]: m·c less each reservation's
     blocked area inside the window, in exact integers — the integral of
     [m − U(t)] without building it. *)
  let avail_area t c =
    List.fold_left
      (fun acc r ->
        let inside = min (Reservation.stop r) c - Reservation.start r in
        if inside > 0 then acc - (Reservation.q r * inside) else acc)
      (t.m * c) t.reservations

  let count t = t.n

  let summary t : summary =
    if t.n = 0 then empty_summary
    else begin
      let fn = float_of_int t.n in
      let utilization =
        (* [Schedule.utilization] verbatim, without rebuilding the
           schedule: work over available area on [0, makespan). *)
        if t.makespan = 0 then 1.0
        else
          let avail_area = avail_area t t.makespan in
          if avail_area = 0 then 1.0 else float_of_int t.work /. float_of_int avail_area
      in
      {
        n = t.n;
        makespan = t.makespan;
        mean_wait = float_of_int t.wait_sum /. fn;
        max_wait = t.max_wait;
        mean_slowdown = Stats.Fsum.total t.slow /. fn;
        mean_bounded_slowdown = Stats.Fsum.total t.bslow /. fn;
        utilization;
      }
    end

  let wait_p50 t = Stats.P2.value t.wait_p50
  let wait_p95 t = Stats.P2.value t.wait_p95
end

let header =
  Printf.sprintf "%-8s %6s %10s %8s %8s %10s %6s" "policy" "Cmax" "mean_wait" "max_wait"
    "slowdn" "bnd_slowdn" "util"

let row ~name (s : summary) =
  Printf.sprintf "%-8s %6d %10.1f %8d %8.2f %10.2f %6.3f" name s.makespan s.mean_wait s.max_wait
    s.mean_slowdown s.mean_bounded_slowdown s.utilization
