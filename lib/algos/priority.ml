open Resa_core

type t =
  | Fifo
  | Lpt
  | Spt
  | Widest_first
  | Narrowest_first
  | Largest_area_first
  | Random of int
  | Explicit of int array

let name = function
  | Fifo -> "FIFO"
  | Lpt -> "LPT"
  | Spt -> "SPT"
  | Widest_first -> "WIDEST"
  | Narrowest_first -> "NARROWEST"
  | Largest_area_first -> "AREA"
  | Random seed -> Printf.sprintf "RANDOM(%d)" seed
  | Explicit _ -> "EXPLICIT"

let identity n = Array.init n (fun i -> i)

let by_key inst key =
  let n = Instance.n_jobs inst in
  let idx = identity n in
  let cmp a b =
    let c = Int.compare (key (Instance.job inst a)) (key (Instance.job inst b)) in
    if c <> 0 then c else Int.compare a b
  in
  Array.sort cmp idx;
  idx

let is_permutation n a =
  Array.length a = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun i ->
      if i < 0 || i >= n || seen.(i) then false
      else begin
        seen.(i) <- true;
        true
      end)
    a

let check_order fn inst order =
  if not (is_permutation (Instance.n_jobs inst) order) then
    invalid_arg (fn ^ ": order is not a permutation")

let order t inst =
  let n = Instance.n_jobs inst in
  match t with
  | Fifo -> identity n
  | Lpt -> by_key inst (fun j -> -Job.p j)
  | Spt -> by_key inst (fun j -> Job.p j)
  | Widest_first -> by_key inst (fun j -> -Job.q j)
  | Narrowest_first -> by_key inst (fun j -> Job.q j)
  | Largest_area_first -> by_key inst (fun j -> -Job.area j)
  | Random seed ->
    let idx = identity n in
    Prng.shuffle (Prng.create ~seed) idx;
    idx
  | Explicit a ->
    if not (is_permutation n a) then
      invalid_arg "Priority.order: Explicit array is not a permutation of job indices";
    Array.copy a

let standard = [ Fifo; Lpt; Spt; Widest_first; Narrowest_first; Largest_area_first ]
