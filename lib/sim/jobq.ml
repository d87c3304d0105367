(* A dead cell's tag. *)
let dead = -1

type t = {
  mutable ids : int array;
  mutable ests : int array;
  mutable widths : int array;
  mutable tags : int array;
  mutable first : int;  (* no live entry below *)
  mutable stop : int;  (* positions in use: [0, stop) *)
  mutable live : int;
}

let create () =
  {
    ids = Array.make 8 0;
    ests = Array.make 8 0;
    widths = Array.make 8 0;
    tags = Array.make 8 dead;
    first = 0;
    stop = 0;
    live = 0;
  }

let length t = t.live
let first t = t.first
let stop t = t.stop
let tags t = t.tags
let ids t = t.ids
let estimates t = t.ests
let widths t = t.widths

(* Doubled, in one allocation. *)
let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let append t ~id ~estimate ~width ~tag =
  if tag < 0 then invalid_arg "Jobq.append: negative tag";
  if t.stop = Array.length t.tags then begin
    t.ids <- grow t.ids 0;
    t.ests <- grow t.ests 0;
    t.widths <- grow t.widths 0;
    t.tags <- grow t.tags dead
  end;
  let i = t.stop in
  t.ids.(i) <- id;
  t.ests.(i) <- estimate;
  t.widths.(i) <- width;
  t.tags.(i) <- tag;
  t.stop <- i + 1;
  t.live <- t.live + 1;
  i

(* Slide the live entries down to [0, live), in order, reporting each one
   that changes position. *)
let compact t ~moved =
  let k = ref 0 in
  for i = t.first to t.stop - 1 do
    let tg = t.tags.(i) in
    if tg <> dead then begin
      if !k < i then begin
        t.ids.(!k) <- t.ids.(i);
        t.ests.(!k) <- t.ests.(i);
        t.widths.(!k) <- t.widths.(i);
        t.tags.(!k) <- tg;
        t.tags.(i) <- dead;
        moved tg !k
      end;
      incr k
    end
  done;
  t.first <- 0;
  t.stop <- !k

let kill t i ~moved =
  if i < t.first || i >= t.stop || t.tags.(i) = dead then invalid_arg "Jobq.kill: dead position";
  t.tags.(i) <- dead;
  t.live <- t.live - 1;
  if i = t.first then
    while t.first < t.stop && t.tags.(t.first) = dead do
      t.first <- t.first + 1
    done;
  if t.stop - t.live > t.live then compact t ~moved
