open Resa_core

let min_time_with_area ?(cap = max_int) tl ~from ~area =
  if area <= 0 then from
  else begin
    (* A non-positive tail can never accumulate the missing area, wherever
       [from] sits. *)
    if Timeline.final_value tl <= 0 then
      invalid_arg "Lower_bounds.min_time_with_area: non-positive tail";
    (* One allocation-free walk over the timeline's segments. Once the
       running answer passes [cap] the caller's pruning test is already
       decided, so the walk stops and reports [cap]. *)
    Timeline.first_reaching_area tl ~from ~area ~cap
  end

let fit_bound_on tl ~from jobs =
  Array.fold_left
    (fun bound j ->
      match Timeline.earliest_fit_at tl ~from ~dur:(Job.p j) ~need:(Job.q j) with
      | -1 -> bound (* tail below need: unreachable for feasible jobs *)
      | s -> max bound (s + Job.p j))
    from jobs

let work_bound inst =
  let w = Instance.total_work inst in
  if w = 0 then 0
  else min_time_with_area (Timeline.of_profile (Instance.availability inst)) ~from:0 ~area:w

let fit_bound inst =
  fit_bound_on (Timeline.of_profile (Instance.availability inst)) ~from:0 (Instance.jobs inst)

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
    min_time_with_area (Timeline.of_profile ok) ~from:0 ~area:total

let best inst = max (work_bound inst) (max (fit_bound inst) (serial_bound inst))
