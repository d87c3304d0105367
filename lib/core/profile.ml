type t = {
  times : int array; (* strictly increasing, times.(0) = 0 *)
  caps : int array;  (* caps.(i) on [times.(i), times.(i+1)), last to infinity *)
}

(* Invariant: adjacent caps differ (normal form), |times| = |caps| >= 1. *)

let normalize times caps =
  let n = Array.length times in
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

let constant c = { times = [| 0 |]; caps = [| c |] }

let of_arrays times caps =
  let n = Array.length times in
  if n < 1 || n <> Array.length caps || times.(0) <> 0 then
    invalid_arg "Profile.of_arrays: steps not in normal form";
  for i = 1 to n - 1 do
    if times.(i) <= times.(i - 1) || caps.(i) = caps.(i - 1) then
      invalid_arg "Profile.of_arrays: steps not in normal form"
  done;
  { times; caps }

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

let imin (a : int) b = if a < b then a else b
let rec bits x = if x = 0 then 0 else 1 + bits (x lsr 1)

(* Bottom-up merge sort through one scratch array. [Array.sort] is a
   heap sort comparing through a closure, which made the whole sweep
   about three times slower (EXPERIMENTS.md "START-UP"). *)
let sort_ints a =
  let n = Array.length a in
  let src = ref a and dst = ref (Array.make n 0) and width = ref 1 in
  while !width < n do
    let s = !src and d = !dst and w = !width in
    let lo = ref 0 in
    while !lo < n do
      let mid = imin (!lo + w) n and hi = imin (!lo + (2 * w)) n in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || s.(!i) <= s.(!j)) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * w
  done;
  if !src != a then Array.blit !src 0 a 0 n

(* The reservation sweep. Each reservation contributes a start edge
   (capacity −q) and a stop edge (capacity +q), packed into one int as
   [time lsl w lor q lsl 1 lor is_start], with [w] one bit more than the
   widest q needs. Sorting the packed array orders edges by time; the
   order among equal times is irrelevant, since their deltas are summed
   before anything is emitted. *)
let rec pack_edges ~w edges i = function
  | [] -> ()
  | r :: rest ->
    let q = Reservation.q r in
    if Reservation.stop r > max_int lsr w then
      invalid_arg "Instance.create: reservation ends beyond the representable horizon";
    edges.(2 * i) <- (Reservation.start r lsl w) lor (q lsl 1) lor 1;
    edges.((2 * i) + 1) <- (Reservation.stop r lsl w) lor (q lsl 1);
    pack_edges ~w edges (i + 1) rest

(* Accumulate each instant's edges of the sorted packed array and count a
   segment only where the capacity changes: the normal form, with the
   value at 0 folded into segment 0. The segments are written into [times]
   and [caps] when those are not empty; answers their number. *)
let sweep_edges ~m ~w edges times caps =
  let fill = Array.length times > 0 and mask = (1 lsl w) - 1 and ne = Array.length edges in
  let k = ref 1 and cur = ref m and last = ref m and i = ref 0 in
  while !i < ne do
    let t = edges.(!i) lsr w in
    while !i < ne && edges.(!i) lsr w = t do
      (* A start edge takes its q, a stop edge gives it back: branch-free,
         since the two kinds interleave unpredictably. *)
      let e = edges.(!i) land mask in
      cur := !cur + ((e lsr 1) * (1 - (2 * (e land 1))));
      incr i
    done;
    if !cur < 0 then invalid_arg "Instance.create: reservations exceed machine capacity";
    if t = 0 then (if fill then caps.(0) <- !cur)
    else if !cur <> !last then begin
      if fill then begin
        times.(!k) <- t;
        caps.(!k) <- !cur
      end;
      incr k
    end;
    last := !cur
  done;
  !k

(* The edges are swept twice, to count the segments and then to fill
   exact-size arrays. *)
let of_reservations ~m reservations =
  let qmax = List.fold_left (fun acc r -> max acc (Reservation.q r)) 0 reservations in
  let w = bits qmax + 1 in
  let edges = Array.make (2 * List.length reservations) 0 in
  pack_edges ~w edges 0 reservations;
  sort_ints edges;
  let n = sweep_edges ~m ~w edges [||] [||] in
  let times = Array.make n 0 and caps = Array.make n m in
  ignore (sweep_edges ~m ~w edges times caps : int);
  { times; caps }

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

let max_on p ~lo ~hi = fold_window p ~lo ~hi ~init:min_int ~f:(fun acc _ _ v -> max acc v)

let integral_on p ~lo ~hi =
  fold_window p ~lo ~hi ~init:0 ~f:(fun acc slo shi v -> acc + (v * (shi - slo)))

let min_value p = Array.fold_left min max_int p.caps

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

let sub a b = merge ( - ) a b

let breakpoints p = Array.copy p.times

let to_steps p = Array.to_list (Array.init (Array.length p.times) (fun i -> (p.times.(i), p.caps.(i))))

let fold_segments p ~init ~f =
  let acc = ref init in
  for i = 0 to Array.length p.times - 1 do
    acc := f !acc ~lo:p.times.(i) ~hi:(seg_hi p i) ~v:p.caps.(i)
  done;
  !acc
