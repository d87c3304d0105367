open Resa_core

(* Filler for never-written and dead cells, so the arrays hold no stale job
   references. *)
let dummy = Job.make ~id:0 ~p:1 ~q:1

(* A dead cell's tag. *)
let dead = -1

type t = {
  mutable jobs : Job.t array;
  mutable tags : int array;
  mutable first : int;  (* no live entry below *)
  mutable stop : int;  (* positions in use: [0, stop) *)
  mutable live : int;
}

let create () = { jobs = Array.make 8 dummy; tags = Array.make 8 dead; first = 0; stop = 0; live = 0 }
let length t = t.live
let first t = t.first
let stop t = t.stop
let jobs t = t.jobs
let tags t = t.tags

let append t j ~tag =
  if tag < 0 then invalid_arg "Jobq.append: negative tag";
  let cap = Array.length t.jobs in
  if t.stop = cap then begin
    t.jobs <- Array.append t.jobs (Array.make cap dummy);
    t.tags <- Array.append t.tags (Array.make cap dead)
  end;
  let i = t.stop in
  t.jobs.(i) <- j;
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
        t.jobs.(!k) <- t.jobs.(i);
        t.tags.(!k) <- tg;
        t.jobs.(i) <- dummy;
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
  t.jobs.(i) <- dummy;
  t.tags.(i) <- dead;
  t.live <- t.live - 1;
  if i = t.first then
    while t.first < t.stop && t.tags.(t.first) = dead do
      t.first <- t.first + 1
    done;
  if t.stop - t.live > t.live then compact t ~moved
