(* The persistent [Profile]'s scheduling operations. Every scheduler in
   [lib/] runs on [Timeline], so these are kept for the oracles and for the
   "= Profile" properties that hold [Timeline] to them. [Profile.t] is
   abstract: each operation first reads the breakpoints and their values
   back, O(k) for a profile not read before, then runs the code [Profile]
   used to carry. *)

include Resa_core.Profile

type steps = {
  times : int array; (* strictly increasing, times.(0) = 0 *)
  caps : int array;  (* caps.(i) on [times.(i), times.(i+1)), last to infinity *)
}

let read_steps p =
  let times = breakpoints p in
  let caps = Array.make (Array.length times) 0 in
  ignore
    (fold_segments p ~init:0 ~f:(fun i ~lo:_ ~hi:_ ~v ->
         caps.(i) <- v;
         i + 1));
  { times; caps }

(* The oracles query one profile many times between updates (every
   candidate of a search node, every job of a plan), so each domain keeps
   the last profile it read back. *)
let last_read = Domain.DLS.new_key (fun () -> ref (constant 0, read_steps (constant 0)))

let steps p =
  let last = Domain.DLS.get last_read in
  let q, s = !last in
  if q == p then s
  else begin
    let s = read_steps p in
    last := (p, s);
    s
  end

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

let min_on p ~lo ~hi = fold_window (steps p) ~lo ~hi ~init:max_int ~f:(fun acc _ _ v -> min acc v)

let final_value p =
  let caps = (steps p).caps in
  caps.(Array.length caps - 1)

let last_breakpoint p =
  let times = (steps p).times in
  times.(Array.length times - 1)

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
  let p = steps p in
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
  let p = steps p in
  let n = Array.length p.times in
  let rec search lo hi =
    if lo >= hi then if lo < n then Some p.times.(lo) else None
    else
      let mid = (lo + hi) / 2 in
      if p.times.(mid) <= t then search (mid + 1) hi else search lo mid
  in
  search 0 n

let equal a b = to_steps a = to_steps b
