type t = {
  m : int;
  jobs : Job.t array;
  reservations : Reservation.t array; (* sorted by Reservation.compare *)
  unavail : Profile.t; (* cached U(t) *)
  avail : Profile.t; (* cached m − U(t): availability is on every hot path *)
  sweep : Resv_sweep.t; (* the same steps, as an engine run reads them *)
}

(* Sorts an int array, not a list: validation allocates two words per id. *)
let distinct_ids id l =
  let a = Array.make (List.length l) 0 in
  List.iteri (fun i x -> a.(i) <- id x) l;
  Resv_sweep.sort_ints a;
  let rec ok i = i >= Array.length a || (a.(i) <> a.(i - 1) && ok (i + 1)) in
  ok 1

let validate ~m ~jobs ~reservations =
  if m < 1 then Error "Instance.create: m must be >= 1"
  else if not (distinct_ids Job.id jobs) then Error "Instance.create: duplicate job ids"
  else if not (distinct_ids Reservation.id reservations) then
    Error "Instance.create: duplicate reservation ids"
  else
    match List.find_opt (fun j -> Job.q j > m) jobs with
    | Some j -> Error (Format.asprintf "Instance.create: %a requires more than m=%d processors" Job.pp j m)
    | None -> Ok ()

let availability_of ~m ~reservations = Resv_sweep.availability (Resv_sweep.run ~m reservations)

let create ~m ~jobs ~reservations =
  match validate ~m ~jobs ~reservations with
  | Error _ as e -> e
  | Ok () -> (
    match Resv_sweep.run ~m reservations with
    | exception Invalid_argument msg -> Error msg
    | sweep ->
      let reservations = Array.of_list reservations in
      Array.sort Reservation.compare reservations;
      Ok
        {
          m;
          jobs = Array.of_list jobs;
          reservations;
          unavail = Resv_sweep.unavailability sweep;
          avail = Resv_sweep.availability sweep;
          sweep;
        })

let create_exn ~m ~jobs ~reservations =
  match create ~m ~jobs ~reservations with Ok t -> t | Error msg -> invalid_arg msg

let of_sizes ~m ?(reservations = []) sizes =
  let jobs = List.mapi (fun i (p, q) -> Job.make ~id:i ~p ~q) sizes in
  let reservations = List.mapi (fun i (start, p, q) -> Reservation.make ~id:i ~start ~p ~q) reservations in
  create_exn ~m ~jobs ~reservations

let m t = t.m
let n_jobs t = Array.length t.jobs
let n_reservations t = Array.length t.reservations
let job t i = t.jobs.(i)
let jobs t = Array.copy t.jobs
let reservations t = Array.copy t.reservations
let unavailability t = t.unavail
let availability t = t.avail
let sweep t = t.sweep
let total_work t = Array.fold_left (fun acc j -> acc + Job.area j) 0 t.jobs
let pmax t = Array.fold_left (fun acc j -> max acc (Job.p j)) 0 t.jobs
let qmax t = Array.fold_left (fun acc j -> max acc (Job.q j)) 0 t.jobs
let umax t = max 0 (Profile.max_value t.unavail)

let horizon t =
  Array.fold_left (fun acc r -> max acc (Reservation.stop r)) 0 t.reservations

let alpha_interval t =
  let fm = float_of_int t.m in
  let lo = if n_jobs t = 0 then 0. else float_of_int (qmax t) /. fm in
  let hi = 1. -. (float_of_int (umax t) /. fm) in
  if lo <= hi && hi > 0. then Some (max lo epsilon_float, hi) else None

let is_alpha_restricted t ~alpha =
  alpha > 0. && alpha <= 1.
  && float_of_int (qmax t) <= (alpha *. float_of_int t.m) +. 1e-9
  && float_of_int (umax t) <= ((1. -. alpha) *. float_of_int t.m) +. 1e-9

let with_jobs t jobs =
  let jobs = List.mapi (fun i j -> Job.make ~id:i ~p:(Job.p j) ~q:(Job.q j)) jobs in
  { t with jobs = Array.of_list jobs }

let pp ppf t =
  Format.fprintf ppf "@[<v>instance: m=%d, %d jobs, %d reservations@," t.m (n_jobs t) (n_reservations t);
  Format.fprintf ppf "jobs: @[<hov>%a@]@," (Format.pp_print_seq ~pp_sep:Format.pp_print_space Job.pp)
    (Array.to_seq t.jobs);
  if Array.length t.reservations > 0 then
    Format.fprintf ppf "reservations: @[<hov>%a@]@,"
      (Format.pp_print_seq ~pp_sep:Format.pp_print_space Reservation.pp)
      (Array.to_seq t.reservations);
  Format.fprintf ppf "@]"
