(* The triples are interleaved in one array, [key; tie; value] at [3i]: a
   heap costs one block, and a swap touches two neighbouring runs. *)
type t = { mutable a : int array; mutable len : int }

let create () = { a = Array.make 24 0; len = 0 }
let length h = h.len
let min_key h = h.a.(0)
let min_value h = h.a.(2)

let less a i j =
  let ki = a.(3 * i) and kj = a.(3 * j) in
  ki < kj || (ki = kj && a.((3 * i) + 1) < a.((3 * j) + 1))

let swap a i j =
  let i = 3 * i and j = 3 * j in
  let k = a.(i) and t = a.(i + 1) and v = a.(i + 2) in
  a.(i) <- a.(j);
  a.(i + 1) <- a.(j + 1);
  a.(i + 2) <- a.(j + 2);
  a.(j) <- k;
  a.(j + 1) <- t;
  a.(j + 2) <- v

let rec sift_up a i =
  if i > 0 && less a i ((i - 1) / 2) then begin
    swap a i ((i - 1) / 2);
    sift_up a ((i - 1) / 2)
  end

let rec sift_down a len i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < len && less a l i then l else i in
  let s = if r < len && less a r s then r else s in
  if s <> i then begin
    swap a i s;
    sift_down a len s
  end

let push h ~key ~tie value =
  if 3 * h.len = Array.length h.a then begin
    let a = Array.make (2 * Array.length h.a) 0 in
    Array.blit h.a 0 a 0 (Array.length h.a);
    h.a <- a
  end;
  let i = h.len in
  h.len <- i + 1;
  let a = h.a in
  a.(3 * i) <- key;
  a.((3 * i) + 1) <- tie;
  a.((3 * i) + 2) <- value;
  sift_up a i

let drop_min h =
  if h.len > 0 then begin
    h.len <- h.len - 1;
    if h.len > 0 then begin
      swap h.a 0 h.len;
      sift_down h.a h.len 0
    end
  end
