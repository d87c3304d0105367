type t = { id : int; start : int; p : int; q : int }

let make ~id ~start ~p ~q =
  if start < 0 then invalid_arg "Reservation.make: start must be >= 0";
  if p < 1 then invalid_arg "Reservation.make: p must be >= 1";
  if q < 1 then invalid_arg "Reservation.make: q must be >= 1";
  { id; start; p; q }

let id r = r.id
let start r = r.start
let p r = r.p
let q r = r.q
let stop r = r.start + r.p

let compare a b =
  let c = Int.compare a.start b.start in
  if c <> 0 then c
  else
    let c = Int.compare (stop a) (stop b) in
    if c <> 0 then c
    else
      let c = Int.compare a.q b.q in
      if c <> 0 then c else Int.compare a.id b.id

let pp ppf r = Format.fprintf ppf "R%d[%d,%d)(q=%d)" r.id r.start (stop r) r.q
