type t = { starts : int array }

type violation =
  | Length_mismatch of { expected : int; got : int }
  | Negative_start of { job : int; start : int }
  | Overload of { time : int; used : int; capacity : int }

let make starts = { starts = Array.copy starts }
let starts s = Array.copy s.starts
let start s i = s.starts.(i)
let n_jobs s = Array.length s.starts

let completion inst s i = s.starts.(i) + Job.p (Instance.job inst i)

let makespan inst s =
  let n = Array.length s.starts in
  let rec go acc i = if i >= n then acc else go (max acc (completion inst s i)) (i + 1) in
  go 0 0

let usage inst s =
  let deltas = ref [] in
  Array.iteri
    (fun i start ->
      let j = Instance.job inst i in
      deltas := (start, Job.q j) :: (start + Job.p j, -Job.q j) :: !deltas)
    s.starts;
  Profile.of_events ~base:0 !deltas

let validate inst s =
  let n = Instance.n_jobs inst in
  if Array.length s.starts <> n then
    Error (Length_mismatch { expected = n; got = Array.length s.starts })
  else
    let neg = ref None in
    Array.iteri (fun i st -> if st < 0 && !neg = None then neg := Some (i, st)) s.starts;
    match !neg with
    | Some (i, st) -> Error (Negative_start { job = i; start = st })
    | None ->
      let used = usage inst s in
      let avail = Instance.availability inst in
      let slack = Profile.sub avail used in
      if Profile.min_value slack >= 0 then Ok ()
      else
        (* Locate the first overload instant for the error report. *)
        let bad =
          Profile.fold_segments slack ~init:None ~f:(fun acc ~lo ~hi:_ ~v ->
              match acc with Some _ -> acc | None -> if v < 0 then Some lo else None)
        in
        let time = Option.get bad in
        Error
          (Overload
             {
               time;
               used = Profile.value_at used time;
               capacity = Profile.value_at avail time;
             })

let is_feasible inst s = Result.is_ok (validate inst s)

let utilization inst s =
  let cmax = makespan inst s in
  if cmax = 0 then 1.0
  else
    let avail_area = Profile.integral_on (Instance.availability inst) ~lo:0 ~hi:cmax in
    if avail_area = 0 then 1.0
    else float_of_int (Instance.total_work inst) /. float_of_int avail_area

let pp_violation ppf = function
  | Length_mismatch { expected; got } ->
    Format.fprintf ppf "start array has %d entries, instance has %d jobs" got expected
  | Negative_start { job; start } -> Format.fprintf ppf "job %d starts at negative time %d" job start
  | Overload { time; used; capacity } ->
    Format.fprintf ppf "overload at t=%d: %d processors used, capacity %d" time used capacity
