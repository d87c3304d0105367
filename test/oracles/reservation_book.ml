(* The persistent-[Profile] reservation book, oracle of
   [Resa_core.Reservation_book]: each request rebuilds the blocked profile
   with [Profile.change] and takes its max over the window. *)

open Resa_core
module Trace = Resa_obs.Trace
module Profile = Profile_oracle

type t = {
  cap : int;
  obs : Trace.t;
  mutable blocked : Profile.t;
  mutable accepted : Reservation.t list; (* reverse grant order *)
  mutable next_id : int;
}

type rejection = Reservation_book.rejection =
  | Too_wide of { q : int; cap : int }
  | Saturated of { time : int; blocked : int; cap : int }

let create ?(obs = Trace.null) ~m ~alpha () =
  if m < 1 then invalid_arg "Reservation_book.create: m must be >= 1";
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg "Reservation_book.create: alpha must be in (0,1]";
  let cap = int_of_float ((1.0 -. alpha) *. float_of_int m +. 1e-9) in
  { cap; obs; blocked = Profile.constant 0; accepted = []; next_id = 0 }

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

let request t ~start ~p ~q =
  if q > t.cap then reject t ~start ~p ~q (Too_wide { q; cap = t.cap })
  else begin
    let blocked' = Profile.change t.blocked ~lo:start ~hi:(start + p) ~delta:q in
    if Profile.max_on blocked' ~lo:start ~hi:(start + p) > t.cap then begin
      (* Locate a saturated instant for the error report. *)
      let time = ref start in
      let found = ref false in
      Array.iter
        (fun bp ->
          if (not !found) && bp >= start && bp < start + p
             && Profile.value_at blocked' bp > t.cap
          then begin
            time := bp;
            found := true
          end)
        (Profile.breakpoints blocked');
      reject t ~start ~p ~q
        (Saturated { time = !time; blocked = Profile.value_at t.blocked !time; cap = t.cap })
    end
    else begin
      let r = Reservation.make ~id:t.next_id ~start ~p ~q in
      t.next_id <- t.next_id + 1;
      t.blocked <- blocked';
      t.accepted <- r :: t.accepted;
      if Trace.enabled t.obs then
        Trace.emit t.obs (Trace.Resv_accept { resv = Reservation.id r; start; p; q });
      Ok r
    end
  end

let accepted t = List.rev t.accepted

let blocked_profile t = t.blocked
