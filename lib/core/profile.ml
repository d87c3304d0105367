type t = {
  times : int array; (* strictly increasing, times.(0) = 0 *)
  caps : int array;  (* caps.(i) on [times.(i), times.(i+1)), last to infinity *)
}

(* Invariant: adjacent caps differ (normal form), |times| = |caps| >= 1. *)

(* Normal form of the first [n] steps. *)
let normalize_prefix n times caps =
  let out_t = Array.make n 0 and out_c = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if !k = 0 || caps.(i) <> out_c.(!k - 1) then begin
      out_t.(!k) <- times.(i);
      out_c.(!k) <- caps.(i);
      incr k
    end
  done;
  { times = Array.sub out_t 0 !k; caps = Array.sub out_c 0 !k }

let normalize times caps = normalize_prefix (Array.length times) times caps

let constant c = { times = [| 0 |]; caps = [| c |] }

let of_breakpoints times caps n =
  if n < 1 || n > Array.length times || n > Array.length caps then
    invalid_arg "Profile.of_breakpoints: bad length";
  if times.(0) <> 0 then invalid_arg "Profile.of_breakpoints: first breakpoint must be 0";
  for i = 1 to n - 1 do
    if times.(i) <= times.(i - 1) then
      invalid_arg "Profile.of_breakpoints: breakpoints must increase"
  done;
  normalize_prefix n times caps

let of_steps steps =
  match steps with
  | [] -> invalid_arg "Profile.of_steps: empty list"
  | _ ->
    let a = Array.of_list steps in
    Array.sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) a;
    let n = Array.length a in
    let times = Array.map fst a and caps = Array.map snd a in
    if times.(0) <> 0 then invalid_arg "Profile.of_steps: first step must start at time 0";
    for i = 1 to n - 1 do
      if times.(i) = times.(i - 1) then invalid_arg "Profile.of_steps: duplicate times"
    done;
    normalize times caps

let of_events ~base deltas =
  match deltas with
  | [] -> constant base
  | _ ->
    let a = Array.of_list deltas in
    Array.sort (fun (t1, _) (t2, _) -> Int.compare t1 t2) a;
    if fst a.(0) < 0 then invalid_arg "Profile.of_events: negative event time";
    (* Accumulate deltas, merging simultaneous events. *)
    let times = ref [] and caps = ref [] in
    let cur = ref base in
    if fst a.(0) > 0 then begin
      times := [ 0 ];
      caps := [ base ]
    end;
    let i = ref 0 in
    let n = Array.length a in
    while !i < n do
      let t = fst a.(!i) in
      while !i < n && fst a.(!i) = t do
        cur := !cur + snd a.(!i);
        incr i
      done;
      times := t :: !times;
      caps := !cur :: !caps
    done;
    let times = Array.of_list (List.rev !times) and caps = Array.of_list (List.rev !caps) in
    normalize times caps

let segment_index p x =
  (* Largest i with times.(i) <= x; requires x >= 0. *)
  if x < 0 then invalid_arg "Profile: negative time";
  let lo = ref 0 and hi = ref (Array.length p.times - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if p.times.(mid) <= x then lo := mid else hi := mid - 1
  done;
  !lo

let value_at p x = p.caps.(segment_index p x)

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
let max_on p ~lo ~hi = fold_window p ~lo ~hi ~init:min_int ~f:(fun acc _ _ v -> max acc v)

let integral_on p ~lo ~hi =
  fold_window p ~lo ~hi ~init:0 ~f:(fun acc slo shi v -> acc + (v * (shi - slo)))

let min_value p = Array.fold_left min max_int p.caps
let max_value p = Array.fold_left max min_int p.caps
let final_value p = p.caps.(Array.length p.caps - 1)
let last_breakpoint p = p.times.(Array.length p.times - 1)

let merge f a b =
  (* Pointwise combination via merged breakpoints. *)
  let na = Array.length a.times and nb = Array.length b.times in
  let times = Array.make (na + nb) 0 and caps = Array.make (na + nb) 0 in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  while !i < na || !j < nb do
    let t =
      match (!i < na, !j < nb) with
      | true, true -> min a.times.(!i) b.times.(!j)
      | true, false -> a.times.(!i)
      | false, true -> b.times.(!j)
      | false, false -> assert false
    in
    if !i < na && a.times.(!i) = t then incr i;
    if !j < nb && b.times.(!j) = t then incr j;
    times.(!k) <- t;
    caps.(!k) <- f a.caps.(max 0 (!i - 1)) b.caps.(max 0 (!j - 1));
    incr k
  done;
  normalize (Array.sub times 0 !k) (Array.sub caps 0 !k)

let add a b = merge ( + ) a b
let sub a b = merge ( - ) a b
let map f p = normalize p.times (Array.map f p.caps)
let neg p = map (fun v -> -v) p
let add_const p c = map (fun v -> v + c) p

let change p ~lo ~hi ~delta =
  if lo >= hi || delta = 0 then p
  else begin
    if lo < 0 then invalid_arg "Profile.change: negative lo";
    let window = of_events ~base:0 [ (lo, delta); (hi, -delta) ] in
    add p window
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

let breakpoints p = Array.copy p.times

let next_breakpoint_after p t =
  let n = Array.length p.times in
  let rec search lo hi =
    if lo >= hi then if lo < n then Some p.times.(lo) else None
    else
      let mid = (lo + hi) / 2 in
      if p.times.(mid) <= t then search (mid + 1) hi else search lo mid
  in
  search 0 n

let to_steps p = Array.to_list (Array.init (Array.length p.times) (fun i -> (p.times.(i), p.caps.(i))))

let fold_segments p ~init ~f =
  let acc = ref init in
  for i = 0 to Array.length p.times - 1 do
    acc := f !acc ~lo:p.times.(i) ~hi:(seg_hi p i) ~v:p.caps.(i)
  done;
  !acc

let equal a b = a.times = b.times && a.caps = b.caps

let pp ppf p =
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun i t ->
      if i > 0 then Format.fprintf ppf " ";
      match seg_hi p i with
      | Some hi -> Format.fprintf ppf "[%d,%d)=%d" t hi p.caps.(i)
      | None -> Format.fprintf ppf "[%d,inf)=%d" t p.caps.(i))
    p.times;
  Format.fprintf ppf "@]"
