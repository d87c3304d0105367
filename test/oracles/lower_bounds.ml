(* The persistent-[Profile] lower bounds, oracle of
   [Resa_exact.Lower_bounds]: the area walk steps from breakpoint to
   breakpoint with [Profile.next_breakpoint_after], the fit bound asks
   [Profile.earliest_fit] per job. [Bnb.solve_reference] prunes with them. *)

open Resa_core
module Profile = Profile_oracle

let min_time_with_area profile ~from ~area =
  if area <= 0 then from
  else begin
    (* A non-positive tail can never accumulate the missing area; rejecting
       it only when [from] sat before the last breakpoint used to let
       past-the-tail calls fall through to a fabricated rate of 1. *)
    if Profile.final_value profile <= 0 then
      invalid_arg "Lower_bounds.min_time_with_area: non-positive tail";
    (* Accumulate area segment by segment from [from], then interpolate in
       the final (constant-rate) piece. *)
    let rec go t acc =
      let v = Profile.value_at profile t in
      match Profile.next_breakpoint_after profile t with
      | Some t' ->
        let gained = v * (t' - t) in
        if acc + gained >= area then
          if v <= 0 then (* cannot finish inside this segment *) t'
          else t + ((area - acc + v - 1) / v)
        else go t' (acc + gained)
      | None ->
        (* Tail segment: v = final_value >= 1, checked above. *)
        t + ((area - acc + v - 1) / v)
    in
    go from 0
  end

let work_bound inst =
  let w = Instance.total_work inst in
  if w = 0 then 0 else min_time_with_area (Instance.availability inst) ~from:0 ~area:w

let fit_bound inst =
  let avail = Instance.availability inst in
  let bound = ref 0 in
  Array.iter
    (fun j ->
      match Profile.earliest_fit avail ~from:0 ~dur:(Job.p j) ~need:(Job.q j) with
      | Some s -> bound := max !bound (s + Job.p j)
      | None -> assert false)
    (Instance.jobs inst);
  !bound

let serial_bound inst =
  let m = Instance.m inst in
  let wide = Array.to_list (Instance.jobs inst) |> List.filter (fun j -> 2 * Job.q j > m) in
  match wide with
  | [] -> 0
  | _ ->
    let total = List.fold_left (fun acc j -> acc + Job.p j) 0 wide in
    let qmin = List.fold_left (fun acc j -> min acc (Job.q j)) max_int wide in
    (* Indicator profile of instants where the narrowest wide job fits. *)
    let avail = Instance.availability inst in
    let ok =
      Profile.fold_segments avail ~init:[] ~f:(fun acc ~lo ~hi:_ ~v ->
          (lo, if v >= qmin then 1 else 0) :: acc)
      |> List.rev |> Profile.of_steps
    in
    min_time_with_area ok ~from:0 ~area:total

let best inst = max (work_bound inst) (max (fit_bound inst) (serial_bound inst))
