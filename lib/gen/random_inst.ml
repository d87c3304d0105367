open Resa_core

let random_jobs rng ~n ~qmax ~pmax =
  List.init n (fun i ->
      Job.make ~id:i ~p:(Prng.int_incl rng ~lo:1 ~hi:pmax) ~q:(Prng.int_incl rng ~lo:1 ~hi:qmax))

let alpha_restricted rng ~m ~n ~alpha ~pmax ?n_reservations ?horizon () =
  if not (alpha > 0.0 && alpha <= 1.0) then invalid_arg "Random_inst.alpha_restricted: bad alpha";
  let qmax = int_of_float (alpha *. float_of_int m +. 1e-9) in
  if qmax < 1 then invalid_arg "Random_inst.alpha_restricted: alpha*m < 1";
  let n_reservations = Option.value n_reservations ~default:(n / 4) in
  let horizon = Option.value horizon ~default:((n * pmax / 2) + 1) in
  let jobs = random_jobs rng ~n ~qmax ~pmax in
  let book = Reservation_book.create ~m ~alpha () in
  let u_cap = Reservation_book.cap book in
  let added = ref 0 and attempts = ref 0 in
  while !added < n_reservations && !attempts < 20 * (n_reservations + 1) && u_cap >= 1 do
    incr attempts;
    let start = Prng.int rng ~bound:horizon in
    let p = Prng.int_incl rng ~lo:1 ~hi:pmax in
    let q = Prng.int_incl rng ~lo:1 ~hi:u_cap in
    if Result.is_ok (Reservation_book.request book ~start ~p ~q) then incr added
  done;
  Instance.create_exn ~m ~jobs ~reservations:(Reservation_book.accepted book)

let cluster_workload rng ~m ~n ~max_runtime =
  let jobs =
    List.init n (fun i ->
        (* Width: 2^k with k log-ish-uniform, occasionally off-by-one to
           model non-power-of-two requests. *)
        let max_exp =
          let rec go e = if 1 lsl (e + 1) > m then e else go (e + 1) in
          go 0
        in
        let q0 = 1 lsl Prng.int_incl rng ~lo:0 ~hi:max_exp in
        let q =
          if Prng.int rng ~bound:5 = 0 then max 1 (min m (q0 + Prng.int_incl rng ~lo:(-1) ~hi:1))
          else q0
        in
        let p = Prng.log_uniform_int rng ~lo:1 ~hi:max_runtime in
        Job.make ~id:i ~p ~q)
  in
  Instance.create_exn ~m ~jobs ~reservations:[]

let non_increasing rng ~m ~n ~pmax ~levels =
  if levels < 1 then invalid_arg "Random_inst.non_increasing: levels must be >= 1";
  let jobs = random_jobs rng ~n ~qmax:m ~pmax in
  (* Build descending staircase reservations all starting at 0: random end
     times and widths with total width <= m − 1. *)
  let budget = ref (m - 1) in
  let reservations = ref [] in
  let idx = ref 0 in
  while !idx < levels && !budget >= 1 do
    let q = Prng.int_incl rng ~lo:1 ~hi:!budget in
    let p = Prng.int_incl rng ~lo:1 ~hi:(max 1 (pmax * (levels - !idx))) in
    reservations := Reservation.make ~id:!idx ~start:0 ~p ~q :: !reservations;
    budget := !budget - q;
    incr idx
  done;
  Instance.create_exn ~m ~jobs ~reservations:(List.rev !reservations)
