(* One sort of packed edges. Each reservation contributes a start edge
   (capacity −q) and a stop edge (capacity +q), packed into one int as
   [time lsl w lor q lsl 1 lor is_start], with [w] one bit more than the
   widest q needs. Sorting the packed array orders edges by time; the
   order among equal times is irrelevant, since their deltas are summed
   before anything is emitted. *)

type t = { m : int; len : int; times : int array; free : int array }

let exceeded = "Instance.create: reservations exceed machine capacity"

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

let run ~m reservations =
  let nr = List.length reservations in
  let times = Array.make ((2 * nr) + 1) 0 and free = Array.make ((2 * nr) + 1) m in
  if nr > 0 then begin
    let qmax = List.fold_left (fun acc r -> max acc (Reservation.q r)) 0 reservations in
    let w = bits qmax + 1 in
    let limit = max_int lsr w in
    let edges = Array.make (2 * nr) 0 in
    List.iteri
      (fun i r ->
        let q = Reservation.q r in
        if Reservation.stop r > limit then
          invalid_arg "Instance.create: reservation ends beyond the representable horizon";
        edges.(2 * i) <- (Reservation.start r lsl w) lor (q lsl 1) lor 1;
        edges.((2 * i) + 1) <- (Reservation.stop r lsl w) lor (q lsl 1))
      reservations;
    sort_ints edges;
    (* Accumulate each instant's edges, then emit a breakpoint only where
       the capacity changes: the normal form, with the value at 0 folded
       into the first segment. *)
    let k = ref 1 and cur = ref m and i = ref 0 in
    let mask = (1 lsl w) - 1 in
    while !i < 2 * nr do
      let t = edges.(!i) lsr w in
      while !i < 2 * nr && edges.(!i) lsr w = t do
        let e = edges.(!i) land mask in
        cur := if e land 1 = 1 then !cur - (e lsr 1) else !cur + (e lsr 1);
        incr i
      done;
      if !cur < 0 then invalid_arg exceeded;
      if t = 0 then free.(0) <- !cur
      else if !cur <> free.(!k - 1) then begin
        times.(!k) <- t;
        free.(!k) <- !cur;
        incr k
      end
    done;
    { m; len = !k; times; free }
  end
  else { m; len = 1; times; free }

let availability s = Profile.of_breakpoints s.times s.free s.len
let unavailability s = Profile.of_breakpoints s.times (Array.map (fun f -> s.m - f) s.free) s.len
