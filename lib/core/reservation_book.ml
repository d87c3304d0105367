module Trace = Resa_obs.Trace

(* The free capacity [cap − blocked] as a timeline of capacity [cap]: a
   request is admissible exactly when [Timeline.reserve] can take it. *)
type t = {
  cap : int;
  obs : Trace.t;
  free : Timeline.t;
  mutable accepted : Reservation.t list; (* reverse grant order *)
  mutable next_id : int;
}

type rejection =
  | Too_wide of { q : int; cap : int }
  | Saturated of { time : int; blocked : int; cap : int }

let create ?(obs = Trace.null) ~m ~alpha () =
  if m < 1 then invalid_arg "Reservation_book.create: m must be >= 1";
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg "Reservation_book.create: alpha must be in (0,1]";
  let cap = int_of_float ((1.0 -. alpha) *. float_of_int m +. 1e-9) in
  { cap; obs; free = Timeline.create cap; accepted = []; next_id = 0 }

let cap t = t.cap

let pp_rejection ppf = function
  | Too_wide { q; cap } -> Format.fprintf ppf "request of %d processors exceeds the cap %d" q cap
  | Saturated { time; blocked; cap } ->
    Format.fprintf ppf "at t=%d, %d processors already blocked (cap %d)" time blocked cap

let reject t ~start ~p ~q r =
  if Trace.enabled t.obs then
    Trace.emit t.obs
      (Trace.Resv_reject { start; p; q; reason = Format.asprintf "%a" pp_rejection r });
  Error r

(* The first instant of [\[start, stop)] with less than [q] free, given
   that one exists: a bisection on the window's prefix minimum. *)
let first_short free ~start ~stop ~q =
  let rec go lo hi =
    if lo = hi then lo
    else
      let mid = lo + ((hi - lo) / 2) in
      if Timeline.min_on free ~lo ~hi:(mid + 1) < q then go lo mid else go (mid + 1) hi
  in
  go start (stop - 1)

let request t ~start ~p ~q =
  (* Checks the input before the book's state is touched. *)
  let r = Reservation.make ~id:t.next_id ~start ~p ~q in
  if q > t.cap then reject t ~start ~p ~q (Too_wide { q; cap = t.cap })
  else if Timeline.reserve t.free ~start ~dur:p ~need:q then begin
    t.next_id <- t.next_id + 1;
    t.accepted <- r :: t.accepted;
    if Trace.enabled t.obs then
      Trace.emit t.obs (Trace.Resv_accept { resv = Reservation.id r; start; p; q });
    Ok r
  end
  else begin
    let time = first_short t.free ~start ~stop:(start + p) ~q in
    reject t ~start ~p ~q
      (Saturated { time; blocked = t.cap - Timeline.value_at t.free time; cap = t.cap })
  end

let accepted t = List.rev t.accepted

let blocked_profile t = Profile.sub (Profile.constant t.cap) (Timeline.to_profile t.free)
