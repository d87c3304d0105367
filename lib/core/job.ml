type t = { id : int; p : int; q : int }

let make ~id ~p ~q =
  if p < 1 then invalid_arg "Job.make: p must be >= 1";
  if q < 1 then invalid_arg "Job.make: q must be >= 1";
  { id; p; q }

let id j = j.id
let p j = j.p
let q j = j.q
let area j = j.p * j.q

let pp ppf j = Format.fprintf ppf "J%d(p=%d,q=%d)" j.id j.p j.q
