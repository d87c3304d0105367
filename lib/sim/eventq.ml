(* An Int_heap keyed on (time, insertion seq): equal times pop FIFO. *)

type t = { heap : Int_heap.t; mutable next_seq : int }

let create () = { heap = Int_heap.create (); next_seq = 0 }
let size q = Int_heap.length q.heap
let is_empty q = size q = 0

let push q ~time pay =
  if time < 0 then invalid_arg "Eventq.push: negative time";
  Int_heap.push q.heap ~key:time ~tie:q.next_seq pay;
  q.next_seq <- q.next_seq + 1

(* The heap's fields are read in place: the event loop peeks at every
   step. *)
let peek_time q = if q.heap.len = 0 then -1 else q.heap.a.(0)

let pop q =
  if q.heap.len = 0 then invalid_arg "Eventq.pop: empty";
  let pay = q.heap.a.(2) in
  Int_heap.drop_min q.heap;
  pay

let clear q =
  Int_heap.clear q.heap;
  q.next_seq <- 0
