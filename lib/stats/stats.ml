let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile on an already sorted array: O(1). *)
let percentile_of_sorted a ~p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let n = Array.length a in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

module Fsum = struct
  (* Shewchuk's growing expansion, with CPython math.fsum's rounding
     correction: [partials] is a list of non-overlapping floats in
     increasing magnitude whose exact sum is the exact sum of everything
     added so far. Because the invariant characterises the exact value,
     [total] is independent of the order in which terms were added — the
     property the streaming metrics lean on to reproduce the batch path
     bit for bit from completion-ordered records. *)
  type t = { mutable partials : float array; mutable n : int }

  let create () = { partials = Array.make 4 0.0; n = 0 }

  (* Inlined into [add_ratio], so the term it computes is never boxed on its
     way in. The magnitude comparison picks between two expressions rather
     than binding a (lo, hi) tuple, which would allocate per partial. *)
  let[@inline] add t x =
    if not (Float.is_finite x) then invalid_arg "Stats.Fsum.add: non-finite term";
    let x = ref x in
    let i = ref 0 in
    for j = 0 to t.n - 1 do
      let y = t.partials.(j) in
      let s = !x +. y in
      let err = if Float.abs !x < Float.abs y then !x -. (s -. y) else y -. (s -. !x) in
      if err <> 0.0 then begin
        t.partials.(!i) <- err;
        incr i
      end;
      x := s
    done;
    if !i = Array.length t.partials then begin
      let b = Array.make (2 * !i) 0.0 in
      Array.blit t.partials 0 b 0 !i;
      t.partials <- b
    end;
    t.partials.(!i) <- !x;
    t.n <- !i + 1

  let add_ratio t num den = add t (float_of_int num /. float_of_int den)

  let total t =
    (* Sum from largest magnitude down, tracking one rounding error term;
       apply CPython's half-way correction against the next partial so the
       result is the exact sum correctly rounded. *)
    if t.n = 0 then 0.0
    else begin
      let i = ref (t.n - 1) in
      let hi = ref t.partials.(!i) in
      let lo = ref 0.0 in
      (try
         while !i > 0 do
           decr i;
           let x = !hi in
           let y = t.partials.(!i) in
           hi := x +. y;
           lo := y -. (!hi -. x);
           if !lo <> 0.0 then raise Exit
         done
       with Exit -> ());
      if !i > 0 && ((!lo < 0.0 && t.partials.(!i - 1) < 0.0) || (!lo > 0.0 && t.partials.(!i - 1) > 0.0))
      then begin
        let y = !lo *. 2.0 in
        let x = !hi +. y in
        if y = x -. !hi then hi := x
      end;
      !hi
    end
end

module P2 = struct
  (* Jain–Chlamtac P² estimator: five markers tracking the running
     min / q/2 / q / (1+q)/2 / max quantile curve with parabolic marker
     adjustment. Constant memory, one comparison pass per observation;
     exact for the first five samples, a heuristic (typically within a few
     relative percent of the empirical quantile on smooth distributions)
     afterwards — the differential suite in test/test_stats.ml pins the
     error against the exact nearest-rank percentile. *)
  type t = {
    q : float; (* target quantile in (0, 1) *)
    h : float array; (* marker heights *)
    pos : float array; (* marker positions (1-based ranks) *)
    np : float array; (* desired positions *)
    dn : float array; (* desired position increments *)
    mutable count : int;
  }

  let create ~q =
    if not (q > 0.0 && q < 1.0) then invalid_arg "Stats.P2.create: q must be in (0, 1)";
    {
      q;
      h = Array.make 5 0.0;
      pos = [| 1.; 2.; 3.; 4.; 5. |];
      np = [| 1.; 1. +. (2. *. q); 1. +. (4. *. q); 3. +. (2. *. q); 5. |];
      dn = [| 0.; q /. 2.; q; (1. +. q) /. 2.; 1. |];
      count = 0;
    }

  let count t = t.count

  let[@inline] parabolic t i d =
    let h = t.h and pos = t.pos in
    h.(i)
    +. d
       /. (pos.(i + 1) -. pos.(i - 1))
       *. (((pos.(i) -. pos.(i - 1) +. d) *. (h.(i + 1) -. h.(i)) /. (pos.(i + 1) -. pos.(i)))
          +. ((pos.(i + 1) -. pos.(i) -. d) *. (h.(i) -. h.(i - 1)) /. (pos.(i) -. pos.(i - 1))))

  let[@inline] linear t i d =
    t.h.(i) +. (d *. (t.h.(i + int_of_float d) -. t.h.(i)) /. (t.pos.(i + int_of_float d) -. t.pos.(i)))

  (* Inlined into [add_int], as [parabolic] and [linear] are into it: a
     float crossing a call is boxed. *)
  let[@inline] add t x =
    if t.count < 5 then begin
      t.h.(t.count) <- x;
      t.count <- t.count + 1;
      if t.count = 5 then Array.sort Float.compare t.h
    end
    else begin
      t.count <- t.count + 1;
      let k =
        if x < t.h.(0) then begin
          t.h.(0) <- x;
          0
        end
        else if x >= t.h.(4) then begin
          t.h.(4) <- x;
          3
        end
        else begin
          let k = ref 0 in
          for i = 1 to 3 do
            if x >= t.h.(i) then k := i
          done;
          !k
        end
      in
      for i = k + 1 to 4 do
        t.pos.(i) <- t.pos.(i) +. 1.
      done;
      for i = 0 to 4 do
        t.np.(i) <- t.np.(i) +. t.dn.(i)
      done;
      for i = 1 to 3 do
        let d = t.np.(i) -. t.pos.(i) in
        if
          (d >= 1.0 && t.pos.(i + 1) -. t.pos.(i) > 1.0)
          || (d <= -1.0 && t.pos.(i - 1) -. t.pos.(i) < -1.0)
        then begin
          let d = if d >= 0.0 then 1.0 else -1.0 in
          let h' = parabolic t i d in
          let h' = if t.h.(i - 1) < h' && h' < t.h.(i + 1) then h' else linear t i d in
          t.h.(i) <- h';
          t.pos.(i) <- t.pos.(i) +. d
        end
      done
    end

  let add_int t x = add t (float_of_int x)

  let value t =
    if t.count = 0 then Float.nan
    else if t.count <= 5 then begin
      (* Exact nearest-rank on the buffered prefix. *)
      let a = Array.sub t.h 0 t.count in
      Array.sort Float.compare a;
      percentile_of_sorted a ~p:(t.q *. 100.0)
    end
    else t.h.(2)
end

(* --- terminal sparklines -------------------------------------------------- *)

let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                      "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline ?(width = 0) xs =
  let xs = List.filter Float.is_finite xs in
  let xs =
    let n = List.length xs in
    if width > 0 && n > width then
      (* Keep the most recent [width] samples: a live dashboard scrolls. *)
      List.filteri (fun i _ -> i >= n - width) xs
    else xs
  in
  match xs with
  | [] -> ""
  | xs ->
    let lo = List.fold_left Float.min Float.infinity xs in
    let hi = List.fold_left Float.max Float.neg_infinity xs in
    let span = hi -. lo in
    let b = Buffer.create (3 * List.length xs) in
    List.iter
      (fun v ->
        let i =
          if span <= 0.0 then 0
          else
            let i = int_of_float ((v -. lo) /. span *. 7.0 +. 0.5) in
            if i < 0 then 0 else if i > 7 then 7 else i
        in
        Buffer.add_string b spark_levels.(i))
      xs;
    Buffer.contents b
