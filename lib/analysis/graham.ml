open Resa_core

let require_no_reservations inst =
  if Instance.n_reservations inst > 0 then
    invalid_arg "Graham: the appendix machinery applies to reservation-free instances"

let lemma1_witness inst sched =
  require_no_reservations inst;
  let cmax = Schedule.makespan inst sched in
  let pmax = Instance.pmax inst in
  let m = Instance.m inst in
  if cmax = 0 then None
  else begin
    let r = Schedule.usage inst sched in
    (* r is piecewise constant: a violating pair exists iff two segments
       A ∋ t, B ∋ t' with t' >= t + pmax, t' < cmax, and r_A + r_B <= m. *)
    let segments =
      Profile.fold_segments r ~init:[] ~f:(fun acc ~lo ~hi ~v ->
          let hi = match hi with None -> cmax | Some h -> min h cmax in
          if lo < cmax && lo < hi then (lo, hi, v) :: acc else acc)
      |> List.rev
    in
    let witness = ref None in
    List.iter
      (fun (a_lo, _a_hi, ra) ->
        List.iter
          (fun (b_lo, b_hi, rb) ->
            if !witness = None && ra + rb <= m then begin
              (* Need t in A, t' in B with t' >= t + pmax. Take t = a_lo. *)
              let t = a_lo in
              let t' = max b_lo (t + pmax) in
              if t' < b_hi then witness := Some (t, t')
            end)
          segments)
      segments;
    !witness
  end

let lemma1_holds inst sched = lemma1_witness inst sched = None

type certificate = {
  makespan : int;
  opt_bound : int;
  work : int;
  graham_rhs : float;
  holds : bool;
}

let theorem2_certificate inst sched ~opt =
  require_no_reservations inst;
  let m = Instance.m inst in
  let makespan = Schedule.makespan inst sched in
  let rhs = (2.0 -. (1.0 /. float_of_int m)) *. float_of_int opt in
  {
    makespan;
    opt_bound = opt;
    work = Instance.total_work inst;
    graham_rhs = rhs;
    holds = float_of_int makespan <= rhs +. 1e-9;
  }

type integral_certificate = {
  c_list : int;
  c_opt : int;
  x_integral : int;
  lemma1_lhs : int;
  work_rhs : int;
  total_work : int;
  chain_holds : bool;
}

let theorem2_integral_certificate inst sched ~opt =
  require_no_reservations inst;
  let m = Instance.m inst in
  let c_list = Schedule.makespan inst sched in
  let w = Instance.total_work inst in
  if c_list <= opt then
    {
      c_list;
      c_opt = opt;
      x_integral = 0;
      lemma1_lhs = 0;
      work_rhs = w;
      total_work = w;
      chain_holds = w <= m * opt;
    }
  else begin
    (* In the proof's notation C_A = (2 − x)·C*, so (1−x)C* = C_A − C* and
       x·C* = 2C* − C_A: every quantity below is an exact integer. *)
    let r = Schedule.usage inst sched in
    let span = c_list - opt in
    let x_integral =
      Profile.integral_on r ~lo:0 ~hi:span + Profile.integral_on r ~lo:opt ~hi:c_list
    in
    let lemma1_lhs = (m + 1) * span in
    let work_rhs = w - ((2 * opt) - c_list) in
    {
      c_list;
      c_opt = opt;
      x_integral;
      lemma1_lhs;
      work_rhs;
      total_work = w;
      chain_holds = lemma1_lhs <= x_integral && x_integral <= work_rhs && w <= m * opt;
    }
  end

