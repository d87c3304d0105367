(* Sparse lazy segment tree over [0, size), size a power of two.

   Nodes live in one growable int array, interleaved at stride 8: a node's
   fields sit in adjacent words ([lc, rc, mn, mx, ad, sm], two words of
   padding), so visiting a node costs one cache line instead of the six a
   parallel-arrays layout pays — the descents below are the innermost loops
   of the simulator and the struct-of-arrays shape was the dominant memory
   traffic. Node references (the [root] field, the [lc]/[rc] slots, every
   [v] below) are base offsets into that array — the node id shifted left
   by 3 — so child hops need no arithmetic beyond an add. Offset 0 is the
   nil sentinel: slot 0 is never written, and [lc = 0] marks a uniform
   (childless) node.

   A node is either a uniform region (no children, mn = mx = its value) or
   an internal node with both children. [ad] is the pending range-add
   already reflected in the node's own mn/mx but not yet pushed to its
   children; for uniform nodes it is always folded into mn/mx immediately.
   Everything at or beyond [last_hi] — in particular the whole region the
   tree has never materialised — carries the constant [tail] value, and the
   universe is kept strictly larger than [last_hi] so the tree always
   contains at least one tail-valued position (several descents rely on
   that to decide "no such instant exists" vs "it exists past the
   horizon"). *)

type t = {
  mutable size : int; (* power of two; root covers [0, size); size > last_hi *)
  mutable root : int;
  mutable tail : int; (* value on [last_hi, ∞) *)
  mutable last_hi : int; (* all changes so far confined to [0, last_hi) *)
  (* External instant of internal position 0. [gc] rebases the tree onto
     its live suffix, so after long runs the universe stays as small as the
     live horizon (shallow descents) instead of growing with absolute time.
     All public coordinates are external; the conversion happens at the API
     boundary and internal positions are [x - off]. *)
  mutable off : int;
  mutable nodes : int array; (* stride-8 interleaved node records *)
  mutable n_nodes : int;
  (* Undo log: packed (lo, hi, delta, checked) quads — internal coordinates
     — of every mutation applied while at least one checkpoint is
     outstanding; [checked] marks capacity-verified [reserve]s, which is
     what lets the simulator prove a speculative log is exactly its
     authoritative reservation sequence and commit it instead of rolling
     back and re-applying. Rollback replays inverses from the top; with no
     checkpoint outstanding nothing is recorded, so the steady-state cost
     of the log is one branch per mutation. *)
  mutable ulog : int array;
  mutable ulog_len : int; (* in quads *)
  mutable specs : int; (* outstanding checkpoints *)
  (* [gc]'s scratch: the live segments as packed (lo, hi, v) triples, kept
     across rebuilds so compaction allocates nothing per segment. *)
  mutable segs : int array;
  mutable n_segs : int;
}

type mark = int

(* Field offsets within a node record. *)
(* lc = +0, rc = +1, mn = +2, mx = +3, ad = +4, sm = +5 *)

(* [w] is the width of the range the node covers: uniform nodes carry
   sum = value · width so the sum aggregate stays exact without storing
   widths (a node's width is implied by its depth). Returns the node's
   base offset. *)
let new_node t v w =
  let base = t.n_nodes lsl 3 in
  if base = Array.length t.nodes then begin
    let b = Array.make (2 * Array.length t.nodes) 0 in
    Array.blit t.nodes 0 b 0 base;
    t.nodes <- b
  end;
  t.n_nodes <- t.n_nodes + 1;
  let a = t.nodes in
  a.(base) <- 0;
  a.(base + 1) <- 0;
  a.(base + 2) <- v;
  a.(base + 3) <- v;
  a.(base + 4) <- 0;
  a.(base + 5) <- v * w;
  base

let create c =
  let t =
    {
      size = 1;
      root = 0;
      tail = c;
      last_hi = 0;
      off = 0;
      nodes = Array.make 512 0;
      n_nodes = 1; (* slot 0 is the nil sentinel *)
      ulog = [||];
      ulog_len = 0;
      specs = 0;
      segs = [||];
      n_segs = 0;
    }
  in
  t.root <- new_node t c 1;
  t

(* [w] is the width of node [v]'s range. *)
let apply_add t v d w =
  let a = t.nodes in
  a.(v + 2) <- a.(v + 2) + d;
  a.(v + 3) <- a.(v + 3) + d;
  a.(v + 4) <- a.(v + 4) + d;
  a.(v + 5) <- a.(v + 5) + (d * w)

(* Materialise a uniform node's children so a partial update can descend
   into it. [w] is the width of node [v]'s range (children cover w/2
   each); the children inherit the node's value — which already folds its
   pending add — so the pending add is cleared. [new_node] may swap
   [t.nodes] for a larger array, so children are created before the final
   writes re-read the field. *)
let split t v w =
  if t.nodes.(v) = 0 then begin
    let u = t.nodes.(v + 2) in
    let l = new_node t u (w / 2) in
    let r = new_node t u (w / 2) in
    let a = t.nodes in
    a.(v) <- l;
    a.(v + 1) <- r;
    a.(v + 4) <- 0
  end

let ensure t hi =
  while hi > t.size do
    let r = new_node t 0 1 in
    let u = new_node t t.tail t.size in
    let a = t.nodes in
    let old = t.root in
    a.(r) <- old;
    a.(r + 1) <- u;
    a.(r + 2) <- min a.(old + 2) t.tail;
    a.(r + 3) <- max a.(old + 3) t.tail;
    a.(r + 5) <- a.(old + 5) + a.(u + 5);
    t.root <- r;
    t.size <- 2 * t.size
  done

(* Partial updates never flush a node's pending add to its children — the
   descent leaves [ad] in place (exactly the invariant the read-only
   descents below exploit by carrying ancestor adds in a parameter), and
   the way back up recomputes the node's aggregates as children-aggregate
   plus own pending add. Compared to the classic push-then-pull shape this
   touches each interior node once instead of writing all four fields of
   both children at every level, which matters: [upd] is the body of every
   reservation and release the simulator performs. *)
let rec upd t v lo hi qlo qhi d =
  if qlo <= lo && hi <= qhi then apply_add t v d (hi - lo)
  else begin
    split t v (hi - lo);
    (* Children were written before any recursive reallocation, so reading
       them from the array as it is now is sound even if a deeper call
       grows it. *)
    let a = t.nodes in
    let mid = (lo + hi) / 2 in
    if qlo < mid then upd t a.(v) lo mid qlo qhi d;
    if qhi > mid then upd t a.(v + 1) mid hi qlo qhi d;
    let a = t.nodes in
    let l = a.(v) and r = a.(v + 1) in
    let ad = a.(v + 4) in
    a.(v + 2) <- min a.(l + 2) a.(r + 2) + ad;
    a.(v + 3) <- max a.(l + 3) a.(r + 3) + ad;
    a.(v + 5) <- a.(l + 5) + a.(r + 5) + (ad * (hi - lo))
  end

(* Read-only descents. Queries pass the pending range-adds of strict
   ancestors down in [add] instead of flushing them with [push], so the
   query path performs no writes at all: no child materialisation, no
   node allocation, no cache-line dirtying — the flat-core property the
   simulator's decide loop depends on. A node's own mn/mx/sm already
   include its own pending add; only the ancestors' are outstanding.
   [push] is paid exclusively by mutations ([upd]). They take the node
   array directly: nothing below can swap it. *)
let rec query a v add lo hi qlo qhi ~want_min =
  if qlo <= lo && hi <= qhi then add + if want_min then a.(v + 2) else a.(v + 3)
  else if a.(v) = 0 then add + a.(v + 2) (* uniform: mn = mx *)
  else begin
    let add = add + a.(v + 4) in
    let mid = (lo + hi) / 2 in
    if qhi <= mid then query a a.(v) add lo mid qlo qhi ~want_min
    else if qlo >= mid then query a a.(v + 1) add mid hi qlo qhi ~want_min
    else begin
      let x = query a a.(v) add lo mid qlo qhi ~want_min in
      let y = query a a.(v + 1) add mid hi qlo qhi ~want_min in
      if want_min then min x y else max x y
    end
  end

(* Leftmost position in [qlo, qhi) whose value satisfies the descent's
   predicate; -1 when none. [keep] prunes whole subtrees from (mn, mx). *)
let rec first a v add lo hi qlo qhi ~keep =
  if qhi <= lo || hi <= qlo || not (keep (add + a.(v + 2)) (add + a.(v + 3))) then -1
  else if a.(v) = 0 then max lo qlo
  else begin
    let add = add + a.(v + 4) in
    let mid = (lo + hi) / 2 in
    let p = first a a.(v) add lo mid qlo qhi ~keep in
    if p >= 0 then p else first a a.(v + 1) add mid hi qlo qhi ~keep
  end

let rec last a v add lo hi qlo qhi ~keep =
  if qhi <= lo || hi <= qlo || not (keep (add + a.(v + 2)) (add + a.(v + 3))) then -1
  else if a.(v) = 0 then min (hi - 1) (qhi - 1)
  else begin
    let add = add + a.(v + 4) in
    let mid = (lo + hi) / 2 in
    let p = last a a.(v + 1) add mid hi qlo qhi ~keep in
    if p >= 0 then p else last a a.(v) add lo mid qlo qhi ~keep
  end

(* Closure-free monomorphic twins of [first] for the two descents inside
   {!earliest_fit} — the hottest query of the simulator's decide loop
   allocates nothing, not even the [keep] closures. *)
let rec first_below a v add lo hi qlo qhi bound =
  if qhi <= lo || hi <= qlo || add + a.(v + 2) >= bound then -1
  else if a.(v) = 0 then max lo qlo
  else begin
    let add = add + a.(v + 4) in
    let mid = (lo + hi) / 2 in
    let p = first_below a a.(v) add lo mid qlo qhi bound in
    if p >= 0 then p else first_below a a.(v + 1) add mid hi qlo qhi bound
  end

let rec first_at_least a v add lo hi qlo qhi bound =
  if qhi <= lo || hi <= qlo || add + a.(v + 3) < bound then -1
  else if a.(v) = 0 then max lo qlo
  else begin
    let add = add + a.(v + 4) in
    let mid = (lo + hi) / 2 in
    let p = first_at_least a a.(v) add lo mid qlo qhi bound in
    if p >= 0 then p else first_at_least a a.(v + 1) add mid hi qlo qhi bound
  end

(* Operation counters in the metrics registry (RESA_METRICS): a disabled
   counter costs one flag load per call, cheap enough for these hot ops. *)
let c_min_on = Resa_obs.Metrics.counter "timeline.min_on"
let c_change = Resa_obs.Metrics.counter "timeline.change"
let c_reserve = Resa_obs.Metrics.counter "timeline.reserve"
let c_earliest_fit = Resa_obs.Metrics.counter "timeline.earliest_fit"
let c_checkpoint = Resa_obs.Metrics.counter "timeline.checkpoint"
let c_rollback = Resa_obs.Metrics.counter "timeline.rollback"
let c_commit = Resa_obs.Metrics.counter "timeline.commit"
let c_undone = Resa_obs.Metrics.counter "timeline.changes_undone"
let c_fit_attempt = Resa_obs.Metrics.counter "timeline.fit_attempts"

let rec point a x v add lo hi =
  if a.(v) = 0 then add + a.(v + 2)
  else begin
    let add = add + a.(v + 4) in
    let mid = (lo + hi) / 2 in
    if x < mid then point a x a.(v) add lo mid else point a x a.(v + 1) add mid hi
  end

(* On a gc-rebased timeline the whole collapsed past [0, off) carries the
   value of internal position 0, so clamping window bounds to the origin
   answers point and window queries below [off] exactly. *)
let value_at t x =
  if x < 0 then invalid_arg "Timeline: negative time";
  let x = if x > t.off then x - t.off else 0 in
  if x >= t.size then t.tail else point t.nodes x t.root 0 0 t.size

let min_on t ~lo ~hi =
  Resa_obs.Metrics.incr c_min_on;
  if lo < 0 || lo > hi then invalid_arg "Timeline: bad window";
  if lo = hi then max_int
  else begin
    let lo = max 0 (lo - t.off) and hi = max 1 (hi - t.off) in
    ensure t hi;
    query t.nodes t.root 0 0 t.size lo hi ~want_min:true
  end

let max_on t ~lo ~hi =
  if lo < 0 || lo > hi then invalid_arg "Timeline: bad window";
  if lo = hi then min_int
  else begin
    let lo = max 0 (lo - t.off) and hi = max 1 (hi - t.off) in
    ensure t hi;
    query t.nodes t.root 0 0 t.size lo hi ~want_min:false
  end

let log_change t lo hi delta checked =
  let i = 4 * t.ulog_len in
  if i + 4 > Array.length t.ulog then begin
    let cap = max 32 (2 * Array.length t.ulog) in
    let b = Array.make cap 0 in
    Array.blit t.ulog 0 b 0 i;
    t.ulog <- b
  end;
  t.ulog.(i) <- lo;
  t.ulog.(i + 1) <- hi;
  t.ulog.(i + 2) <- delta;
  t.ulog.(i + 3) <- (if checked then 1 else 0);
  t.ulog_len <- t.ulog_len + 1

let do_change t ~lo ~hi ~delta ~checked =
  Resa_obs.Metrics.incr c_change;
  if lo < hi && delta <> 0 then begin
    if lo < 0 then invalid_arg "Timeline.change: negative lo";
    if lo < t.off then invalid_arg "Timeline.change: below the gc origin";
    let lo = lo - t.off and hi = hi - t.off in
    (* Strictly past [hi] so at least one tail-valued position stays in
       range (the size > last_hi invariant). *)
    ensure t (hi + 1);
    upd t t.root 0 t.size lo hi delta;
    if hi > t.last_hi then t.last_hi <- hi;
    if t.specs > 0 then log_change t lo hi delta checked
  end

let change t ~lo ~hi ~delta = do_change t ~lo ~hi ~delta ~checked:false

let checkpoint t =
  Resa_obs.Metrics.incr c_checkpoint;
  t.specs <- t.specs + 1;
  t.ulog_len

let check_mark t m name =
  if t.specs = 0 || m < 0 || m > t.ulog_len then
    invalid_arg (name ^ ": stale or non-LIFO mark")

let rollback t m =
  Resa_obs.Metrics.incr c_rollback;
  check_mark t m "Timeline.rollback";
  Resa_obs.Metrics.add c_undone (t.ulog_len - m);
  for i = t.ulog_len - 1 downto m do
    let j = 4 * i in
    (* The window was [ensure]d when the change was recorded and the universe
       never shrinks, so the inverse add can hit the tree directly. *)
    upd t t.root 0 t.size t.ulog.(j) t.ulog.(j + 1) (-t.ulog.(j + 2))
  done;
  t.ulog_len <- m;
  t.specs <- t.specs - 1;
  if t.specs = 0 then t.ulog_len <- 0

let commit t m =
  Resa_obs.Metrics.incr c_commit;
  check_mark t m "Timeline.commit";
  t.specs <- t.specs - 1;
  if t.specs = 0 then t.ulog_len <- 0

let open_checkpoints t = t.specs

let spec_ops t m = t.ulog_len - m

let spec_op_is_reserve t m ~i ~start ~dur ~need =
  let k = m + i in
  let j = 4 * k in
  k >= 0 && k < t.ulog_len
  && t.ulog.(j) = start - t.off
  && t.ulog.(j + 1) = start + dur - t.off
  && t.ulog.(j + 2) = -need
  && t.ulog.(j + 3) = 1

let reserve t ~start ~dur ~need =
  Resa_obs.Metrics.incr c_reserve;
  if dur < 1 then invalid_arg "Timeline.reserve: dur must be >= 1";
  if need < 0 then invalid_arg "Timeline.reserve: negative need";
  if min_on t ~lo:start ~hi:(start + dur) < need then
    invalid_arg "Timeline.reserve: insufficient capacity in window";
  do_change t ~lo:start ~hi:(start + dur) ~delta:(-need) ~checked:true

let reserve_fitting t ~start ~dur ~need =
  Resa_obs.Metrics.incr c_reserve;
  if dur < 1 then invalid_arg "Timeline.reserve_fitting: dur must be >= 1";
  if need < 0 then invalid_arg "Timeline.reserve_fitting: negative need";
  do_change t ~lo:start ~hi:(start + dur) ~delta:(-need) ~checked:true

(* Top-level so each retry is a direct call: no closure is built per
   [earliest_fit], and the two inner descents are the monomorphic
   closure-free twins of [first]. *)
let rec fit_attempt t dur need s =
  Resa_obs.Metrics.incr c_fit_attempt;
  ensure t (s + dur);
  match first_below t.nodes t.root 0 0 t.size s (s + dur) need with
  | -1 -> s
  | p -> (
    (* The window is blocked at [p]; the next viable candidate is the first
       later instant with capacity again >= need. Position size-1 carries
       the tail value (size > last_hi), so finding nothing here proves the
       tail is below [need] and no window ever fits. *)
    match first_at_least t.nodes t.root 0 0 t.size (p + 1) t.size need with
    | -1 -> -1
    | s' -> fit_attempt t dur need s')

let earliest_fit_at t ~from ~dur ~need =
  Resa_obs.Metrics.incr c_earliest_fit;
  if dur < 1 then invalid_arg "Timeline.earliest_fit: dur must be >= 1";
  if from < 0 then invalid_arg "Timeline.earliest_fit: negative from";
  (* Candidates below the gc origin are clamped to it: the collapsed past
     is not schedulable space. *)
  match fit_attempt t dur need (max 0 (from - t.off)) with
  | -1 -> -1
  | s -> s + t.off

let earliest_fit t ~from ~dur ~need =
  match earliest_fit_at t ~from ~dur ~need with -1 -> None | s -> Some s

let next_breakpoint_after t x =
  if x < 0 then invalid_arg "Timeline: negative time";
  let x = x - t.off in
  (* Anywhere in the collapsed past behaves like internal position 0: same
     reference value, search starts at the origin. *)
  let xq = max 0 x in
  let c = if xq >= t.size then t.tail else point t.nodes xq t.root 0 0 t.size in
  if x + 1 >= t.size then None
  else
    match
      first t.nodes t.root 0 0 t.size (max 0 (x + 1)) t.size
        ~keep:(fun mn mx -> mn <> c || mx <> c)
    with
    | -1 -> None (* constant from x on: [x+1, size) = c and size-1 is tail-valued *)
    | p -> Some (p + t.off)

let last_breakpoint t =
  let c = t.tail in
  match last t.nodes t.root 0 0 t.size 0 t.size ~keep:(fun mn mx -> mn <> c || mx <> c) with
  | -1 -> 0
  | p -> p + 1 + t.off

let final_value t = t.tail

let iter_chunks_from t ~from ~f =
  if from < 0 then invalid_arg "Timeline.iter_chunks_from: negative from";
  let off = t.off in
  let ifrom = max 0 (from - off) in
  let exception Stop in
  let visit lo hi v = if not (f ~lo ~hi ~v) then raise Stop in
  try
    if ifrom < t.size then begin
      let a = t.nodes in
      let rec go v add lo hi =
        if hi > ifrom then
          if a.(v) = 0 then visit (max (lo + off) from) (Some (hi + off)) (add + a.(v + 2))
          else begin
            let add = add + a.(v + 4) in
            let mid = (lo + hi) / 2 in
            go a.(v) add lo mid;
            go a.(v + 1) add mid hi
          end
      in
      go t.root 0 0 t.size
    end;
    visit (max from (t.size + off)) None t.tail
  with Stop -> ()

let first_reaching_area t ~from ~area ~cap =
  if from < 0 then invalid_arg "Timeline.first_reaching_area: negative from";
  if area <= 0 then min from cap
  else begin
    (* Prefix below the gc origin: a constant run at internal 0's value,
       folded in closed form before the tree walk. *)
    let off = t.off in
    let pre = ref 0 and pre_found = ref (-1) in
    let from =
      if from >= off then from
      else begin
        let v0 = point t.nodes 0 t.root 0 0 t.size in
        let w = min off cap - from in
        if w > 0 then begin
          if v0 > 0 && v0 * w >= area then pre_found := from + ((area + v0 - 1) / v0)
          else pre := v0 * w
        end;
        off
      end
    in
    if !pre_found >= 0 then min !pre_found cap
    else begin
      let ifrom = from - off and icap = cap - off in
      (* One root-to-answer descent on the sum aggregate: a subtree of
         non-negative values whose whole sum cannot complete the missing area
         is consumed in O(1) (prefix sums within it stay below the target, so
         the answer cannot sit inside); only subtrees on the accumulation
         frontier are opened. Mixed-sign subtrees are walked to their leaves —
         their prefix sums can overshoot the total — which keeps the result
         exact for arbitrary timelines; capacity timelines are non-negative,
         so the search stays O(log U) there. *)
      let a = t.nodes in
      let acc = ref !pre and found = ref (-1) in
      let rec go v add lo hi =
        if !found < 0 && hi > ifrom && lo < icap then begin
          if a.(v) = 0 then begin
            let value = add + a.(v + 2) in
            let lo' = if lo > ifrom then lo else ifrom in
            let gained = value * (hi - lo') in
            if value > 0 && !acc + gained >= area then
              found := lo' + ((area - !acc + value - 1) / value)
            else acc := !acc + gained
          end
          else begin
            let sum = a.(v + 5) + (add * (hi - lo)) in
            if lo >= ifrom && add + a.(v + 2) >= 0 && !acc + sum < area then
              acc := !acc + sum
            else begin
              let add = add + a.(v + 4) in
              let mid = (lo + hi) / 2 in
              go a.(v) add lo mid;
              go a.(v + 1) add mid hi
            end
          end
        end
      in
      if ifrom < t.size then go t.root 0 0 t.size;
      if !found >= 0 then min (!found + off) cap
      else begin
        let start = max ifrom t.size in
        if start >= icap || t.tail <= 0 then cap
        else min cap (start + off + ((area - !acc + t.tail - 1) / t.tail))
      end
    end
  end

let to_profile ?(from = 0) t =
  if from < 0 then invalid_arg "Timeline.to_profile: negative from";
  let acc = ref [] in
  let emit pos v =
    match !acc with
    | (_, v') :: _ when v' = v -> ()
    | _ -> acc := (pos, v) :: !acc
  in
  let off = t.off in
  let ifrom = max 0 (from - off) in
  if ifrom >= t.size then emit 0 t.tail
  else begin
    let a = t.nodes in
    let rec go v add lo hi =
      if hi > ifrom then
        if a.(v) = 0 then emit (max lo ifrom + off) (add + a.(v + 2))
        else begin
          let add = add + a.(v + 4) in
          let mid = (lo + hi) / 2 in
          go a.(v) add lo mid;
          go a.(v + 1) add mid hi
        end
    in
    go t.root 0 0 t.size
  end;
  let steps =
    match List.rev !acc with
    | (_, v) :: rest -> (0, v) :: rest (* the first run reaches back to 0 *)
    | [] -> assert false
  in
  Profile.of_steps steps

let node_count t = t.n_nodes

let c_gc = Resa_obs.Metrics.counter "timeline.gc"

(* Append the live segment [lo, hi) of value [v] to [t.segs], merging it
   into the previous one when that ends at [lo] with the same value (tree
   leaves are not maximal runs). *)
let push_seg t lo hi v =
  let k = t.n_segs in
  let j = 3 * k in
  if k > 0 && t.segs.(j - 1) = v && t.segs.(j - 2) = lo then t.segs.(j - 2) <- hi
  else begin
    if j + 3 > Array.length t.segs then begin
      let b = Array.make (max 96 (2 * Array.length t.segs)) 0 in
      Array.blit t.segs 0 b 0 j;
      t.segs <- b
    end;
    t.segs.(j) <- lo;
    t.segs.(j + 1) <- hi;
    t.segs.(j + 2) <- v;
    t.n_segs <- k + 1
  end

(* In-order walk of the leaves right of internal position [from], pushed
   as segments shifted so that [from] becomes 0 (the first is clamped to
   it). *)
let rec collect_segs t v add lo hi from =
  if hi > from then begin
    let a = t.nodes in
    if a.(v) = 0 then push_seg t (max lo from - from) (hi - from) (add + a.(v + 2))
    else begin
      let add = add + a.(v + 4) in
      let mid = (lo + hi) / 2 in
      collect_segs t a.(v) add lo mid from;
      collect_segs t a.(v + 1) add mid hi from
    end
  end

(* Bottom-up rebuild of the subtree over [lo, hi) from the segments
   [t.segs] holds, [t.n_segs] of them. Leaves are built left to right, and
   [idx] is the cursor: the segment containing the subtree's first instant
   (or [t.n_segs] once past the last one, where the tail value holds).
   Returns the subtree's node. *)
let rec build_segs t idx lo hi =
  if !idx >= t.n_segs then new_node t t.tail (hi - lo)
  else begin
    let j = 3 * !idx in
    let slo = t.segs.(j) and shi = t.segs.(j + 1) in
    if slo <= lo && hi <= shi then begin
      if shi = hi then incr idx;
      new_node t t.segs.(j + 2) (hi - lo)
    end
    else begin
      let nd = new_node t 0 (hi - lo) in
      let mid = (lo + hi) / 2 in
      let l = build_segs t idx lo mid in
      let r = build_segs t idx mid hi in
      let a = t.nodes in
      a.(nd) <- l;
      a.(nd + 1) <- r;
      a.(nd + 2) <- min a.(l + 2) a.(r + 2);
      a.(nd + 3) <- max a.(l + 3) a.(r + 3);
      a.(nd + 4) <- 0;
      a.(nd + 5) <- a.(l + 5) + a.(r + 5);
      nd
    end
  end

(* History garbage collection. The committed past of a capacity timeline
   never changes (simulators only mutate and query windows at or after the
   current instant), yet the tree keeps one materialised node chain per
   historic segment forever — a 10M-job replay would grow the node arrays
   without bound. [gc ~upto] rebuilds the tree from the live suffix: the
   result is exact on [upto, ∞) and constant [value_at upto] on [0, upto)
   (the same collapse {!to_profile}'s [~from] performs), and the node
   array is reallocated at the live size, returning the dead history to
   the OCaml heap. Cost: O(nodes) — one walk over the old tree into the
   reused segment buffer, one bottom-up pass building the new one — with
   no allocation per segment. *)
let gc t ~upto =
  Resa_obs.Metrics.incr c_gc;
  if upto < 0 then invalid_arg "Timeline.gc: negative upto";
  if t.specs > 0 then invalid_arg "Timeline.gc: checkpoint outstanding";
  (* The origin never moves backwards: a second gc at an earlier instant
     compacts from the existing origin. *)
  let upto = max upto t.off in
  (* Collect the live suffix before touching the tree, already in the new
     internal coordinates: [upto] is internal position [upto - off] today
     and 0 after the rebase. The first segment is clamped to it, and its
     value — [value_at upto] — becomes the collapsed past. The tail beyond
     the tree is not a segment. *)
  let ifrom = upto - t.off in
  t.n_segs <- 0;
  if ifrom < t.size then collect_segs t t.root 0 0 t.size ifrom;
  let k = t.n_segs in
  let tail = t.tail in
  (* REBASE: [upto] becomes internal position 0, so the universe — and with
     it every descent's depth — tracks the live horizon's width instead of
     absolute time. Consequence: mutations strictly below the origin are no
     longer representable and are rejected by [change]. The tree is rebuilt
     bottom-up in one pass over the live segments — O(nodes), not one
     O(log U) [change] descent per segment — into a fresh right-sized array,
     which actually releases the dead nodes (growing back is amortised
     doubling). Cheap rebuilds are what make frequent span-tied gc viable on
     the schedulers' plan timelines. *)
  t.off <- upto;
  if k = 0 then begin
    (* Constant at or after [upto]: the whole timeline is the tail. *)
    t.size <- 1;
    t.last_hi <- 0;
    t.n_nodes <- 1;
    t.nodes <- Array.make 512 0;
    t.root <- new_node t tail 1
  end
  else begin
    let width = t.segs.((3 * k) - 2) in
    let size = ref 1 and bits = ref 1 in
    while !size < width do
      size := 2 * !size;
      incr bits
    done;
    let size = !size in
    (* Contiguous segments share most of their root-to-leaf paths, so the
       materialised-node count is close to 4·k + 2·depth in practice; start
       there and let [new_node]'s amortised doubling absorb the worst case
       rather than over-allocating a fresh array on every rebuild. *)
    t.size <- size;
    t.last_hi <- width;
    t.n_nodes <- 1;
    t.nodes <- Array.make (max 512 (8 * ((4 * k) + (2 * !bits) + 8))) 0;
    t.root <- build_segs t (ref 0) 0 size
  end

let origin t = t.off

let of_profile ?horizon p =
  let tail = Profile.final_value p in
  let t = create tail in
  (match horizon with Some h when h > 0 -> ensure t h | _ -> ());
  Profile.fold_segments p ~init:() ~f:(fun () ~lo ~hi ~v ->
      match hi with
      | Some hi -> change t ~lo ~hi ~delta:(v - tail)
      | None -> () (* final segment: already [tail] everywhere *));
  t

let pp ppf t = Profile.pp ppf (to_profile t)
