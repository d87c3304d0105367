(* The persistent [Profile]'s scheduling operations. Every scheduler in
   [lib/] runs on [Timeline], so these are kept for the oracles and for the
   "= Profile" properties that hold [Timeline] to them. They read the
   profile's read-only arrays and run the code [Profile] used to carry. *)

include Resa_core.Profile

let segment_index p x =
  (* Largest i with times.(i) <= x; requires x >= 0. *)
  if x < 0 then invalid_arg "Profile: negative time";
  let lo = ref 0 and hi = ref (Array.length p.times - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if p.times.(mid) <= x then lo := mid else hi := mid - 1
  done;
  !lo

let seg_hi p i = if i + 1 < Array.length p.times then Some p.times.(i + 1) else None

let fold_window p ~lo ~hi ~init ~f =
  (* Fold [f acc seg_lo seg_hi v] over segment pieces intersecting [lo, hi);
     the empty window [lo = hi] folds nothing. *)
  if lo < 0 || lo > hi then invalid_arg "Profile: bad window";
  if lo = hi then init
  else
  let i0 = segment_index p lo in
  let rec go acc i =
    if i >= Array.length p.times || p.times.(i) >= hi then acc
    else
      let slo = max lo p.times.(i) in
      let shi = match seg_hi p i with None -> hi | Some t -> min hi t in
      go (f acc slo shi p.caps.(i)) (i + 1)
  in
  go init i0

let min_on p ~lo ~hi = fold_window p ~lo ~hi ~init:max_int ~f:(fun acc _ _ v -> min acc v)

let max_value p = Array.fold_left max min_int p.caps
let final_value p = p.caps.(Array.length p.caps - 1)
let last_breakpoint p = p.times.(Array.length p.times - 1)

let neg p = sub (constant 0) p
let add a b = sub a (neg b)

let change p ~lo ~hi ~delta =
  if lo >= hi || delta = 0 then p
  else begin
    if lo < 0 then invalid_arg "Profile.change: negative lo";
    let window = of_events ~base:0 [ (lo, -delta); (hi, delta) ] in
    sub p window
  end

let reserve p ~start ~dur ~need =
  if dur < 1 then invalid_arg "Profile.reserve: dur must be >= 1";
  if need < 0 then invalid_arg "Profile.reserve: negative need";
  if min_on p ~lo:start ~hi:(start + dur) < need then
    invalid_arg "Profile.reserve: insufficient capacity in window";
  change p ~lo:start ~hi:(start + dur) ~delta:(-need)

let earliest_fit p ~from ~dur ~need =
  if dur < 1 then invalid_arg "Profile.earliest_fit: dur must be >= 1";
  if from < 0 then invalid_arg "Profile.earliest_fit: negative from";
  let n = Array.length p.times in
  (* Candidate starts are [from] and breakpoints; on failure inside the
     window, jump past the blocking segment. *)
  let rec attempt s =
    let i0 = segment_index p s in
    let rec check i =
      if i >= n || p.times.(i) >= s + dur then Some s
      else if p.caps.(i) >= need then check (i + 1)
      else if i + 1 >= n then None (* blocking tail segment: no window ever fits *)
      else attempt p.times.(i + 1)
    in
    check i0
  in
  attempt from

let next_breakpoint_after p t =
  let n = Array.length p.times in
  let rec search lo hi =
    if lo >= hi then if lo < n then Some p.times.(lo) else None
    else
      let mid = (lo + hi) / 2 in
      if p.times.(mid) <= t then search (mid + 1) hi else search lo mid
  in
  search 0 n

let equal a b = a.times = b.times && a.caps = b.caps
