type t = {
  mutable key : int array;
  mutable tie : int array;
  mutable value : int array;
  mutable len : int;
}

let create () =
  { key = Array.make 64 0; tie = Array.make 64 0; value = Array.make 64 0; len = 0 }

let length h = h.len
let min_key h = h.key.(0)
let min_tie h = h.tie.(0)
let min_value h = h.value.(0)

let less h i j = h.key.(i) < h.key.(j) || (h.key.(i) = h.key.(j) && h.tie.(i) < h.tie.(j))

let swap h i j =
  let k = h.key.(i) in
  h.key.(i) <- h.key.(j);
  h.key.(j) <- k;
  let t = h.tie.(i) in
  h.tie.(i) <- h.tie.(j);
  h.tie.(j) <- t;
  let v = h.value.(i) in
  h.value.(i) <- h.value.(j);
  h.value.(j) <- v

let rec sift_up h i =
  if i > 0 && less h i ((i - 1) / 2) then begin
    swap h i ((i - 1) / 2);
    sift_up h ((i - 1) / 2)
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < h.len && less h l i then l else i in
  let s = if r < h.len && less h r s then r else s in
  if s <> i then begin
    swap h i s;
    sift_down h s
  end

let grow a = Array.append a (Array.make (Array.length a) 0)

let push h ~key ~tie value =
  if h.len = Array.length h.key then begin
    h.key <- grow h.key;
    h.tie <- grow h.tie;
    h.value <- grow h.value
  end;
  let i = h.len in
  h.len <- i + 1;
  h.key.(i) <- key;
  h.tie.(i) <- tie;
  h.value.(i) <- value;
  sift_up h i

let drop_min h =
  if h.len > 0 then begin
    h.len <- h.len - 1;
    if h.len > 0 then begin
      swap h 0 h.len;
      sift_down h 0
    end
  end

let clear h = h.len <- 0
