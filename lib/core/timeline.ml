(* Sorted breakpoint blocks.

   The step function is stored as its normalised segment list: (pos, value)
   pairs in increasing [pos], adjacent values distinct, the first segment
   starting at the origin (0 until the first [gc]) and the last one
   extending to infinity. The list is cut into blocks of at most [bsize]
   consecutive segments. Blocks are fixed slices of two pooled int arrays:
   pool block [b] owns indices [b*bsize, b*bsize + len.(b)) of [pos] and
   [vals]. [order] lists the blocks in time order and [first] caches the
   first position of each, so locating an instant is one binary search
   over [first] and one inside a block: two short scans of contiguous
   memory instead of a pointer-chasing descent.

   Each block carries a pending add (a segment's value is
   [vals.(j) + add.(b)]) and the min and max of its values, pending add
   included. A range change is one pass ([apply]): it locates its low end
   once and reaches the high end by scanning forward, decides from the old
   values which ends become breakpoints and which merge with their
   neighbour, then rewrites each end's block with one shift, adds lazily
   to the whole blocks in between and refreshes each touched block once.
   Queries scan partial blocks and read the summaries of whole ones. Every
   mutation advances [version], so a caller can tell that an answer still
   holds. Freed pool blocks go on a free list and the pool only grows by
   doubling, so steady-state operation allocates nothing. *)

let bsize = 16 (* segments per block *)
let bshift = 4 (* bsize = 1 lsl bshift *)

(* Int-typed: the polymorphic [min]/[max] compare through the runtime. *)
let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

type t = {
  (* Pool, indexed by pool block. *)
  mutable pos : int array;
  mutable vals : int array;
  mutable len : int array;
  mutable add : int array;
  mutable mn : int array;
  mutable mx : int array;
  mutable free : int array; (* stack of unused pool blocks *)
  mutable nfree : int;
  (* Blocks in time order. *)
  mutable order : int array;
  mutable first : int array;
  mutable nb : int;
  mutable finger : int; (* last [locate] answer; a hint, checked on use *)
  mutable nseg : int;
  mutable off : int; (* the gc origin: start of the first segment *)
  mutable version : int; (* bumped by every mutation: [apply] and [gc] *)
  (* Undo log: packed (lo, hi, delta, checked) quads of every mutation
     applied while at least one checkpoint is outstanding; [checked] marks
     the changes made by a [reserve] whose capacity check passed, which is
     what lets the simulator prove a decision's log is exactly its starts'
     reservations. Rollback replays inverses from the top. Segments are
     normalised, so the inverses restore exactly the same segment list.
     With no checkpoint outstanding nothing is recorded: one branch per
     mutation. *)
  mutable ulog : int array;
  mutable ulog_len : int; (* in quads *)
  mutable specs : int; (* outstanding checkpoints *)
}

type mark = int

let make blocks =
  {
    pos = Array.make (blocks * bsize) 0;
    vals = Array.make (blocks * bsize) 0;
    len = Array.make blocks 0;
    add = Array.make blocks 0;
    mn = Array.make blocks 0;
    mx = Array.make blocks 0;
    free = Array.init blocks (fun i -> blocks - 1 - i);
    nfree = blocks;
    order = Array.make blocks 0;
    first = Array.make blocks 0;
    nb = 0;
    finger = 0;
    nseg = 0;
    off = 0;
    version = 0;
    ulog = [||];
    ulog_len = 0;
    specs = 0;
  }

(* A pool that fills doubles, but to 64 blocks at least: the small
   generations in between would land on the minor heap (arrays of up to
   256 words do), one more set per growth. *)
let alloc_block t =
  if t.nfree = 0 then begin
    let n = Array.length t.len in
    let n' = imax (2 * n) 64 in
    let ext a size =
      let b = Array.make size 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.pos <- ext t.pos (n' * bsize);
    t.vals <- ext t.vals (n' * bsize);
    t.len <- ext t.len n';
    t.add <- ext t.add n';
    t.mn <- ext t.mn n';
    t.mx <- ext t.mx n';
    t.order <- ext t.order n';
    t.first <- ext t.first n';
    t.free <- ext t.free n';
    for b = n' - 1 downto n do
      t.free.(t.nfree) <- b;
      t.nfree <- t.nfree + 1
    done
  end;
  t.nfree <- t.nfree - 1;
  let b = t.free.(t.nfree) in
  t.len.(b) <- 0;
  t.add.(b) <- 0;
  b

(* Move the [n] entries at pool index [src] to [dst], adding [d] to their
   values (the ranges may overlap). Within a block that is at most [bsize]
   entries, where a loop beats the runtime call [Array.blit] makes. *)
let move t src dst n d =
  let pos = t.pos and vals = t.vals in
  if dst > src then
    for x = n - 1 downto 0 do
      pos.(dst + x) <- pos.(src + x);
      vals.(dst + x) <- vals.(src + x) + d
    done
  else if dst < src || d <> 0 then
    for x = 0 to n - 1 do
      pos.(dst + x) <- pos.(src + x);
      vals.(dst + x) <- vals.(src + x) + d
    done

(* Insert pool block [b], already filled, at time-order position [k]. *)
let insert_block t k b =
  Array.blit t.order k t.order (k + 1) (t.nb - k);
  Array.blit t.first k t.first (k + 1) (t.nb - k);
  t.order.(k) <- b;
  t.first.(k) <- t.pos.(b lsl bshift);
  t.nb <- t.nb + 1

(* Return the [n] blocks at order positions [k, k+n) to the pool. Their
   segments are the caller's to account for. *)
let drop_blocks t k n =
  for i = k to k + n - 1 do
    t.free.(t.nfree) <- t.order.(i);
    t.nfree <- t.nfree + 1
  done;
  Array.blit t.order (k + n) t.order k (t.nb - k - n);
  Array.blit t.first (k + n) t.first k (t.nb - k - n);
  t.nb <- t.nb - n

let refresh t b =
  let lo = ref max_int and hi = ref min_int in
  for j = b lsl bshift to (b lsl bshift) + t.len.(b) - 1 do
    let v = t.vals.(j) in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  t.mn.(b) <- !lo + t.add.(b);
  t.mx.(b) <- !hi + t.add.(b)

(* Largest [j] in [lo, hi) with [a.(j) <= x], given [a.(lo) <= x]. *)
let last_le a lo hi x =
  let lo = ref lo and hi = ref hi in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) <= x then lo := mid else hi := mid
  done;
  !lo

(* Order position of the block holding instant [x >= off]. Consecutive
   searches mostly land in the same block: a reservation searches where
   the fit walk that decided it started, and a decision's queries cluster
   around its instant. So the last answer, kept in [finger], is tried
   first; it is only a hint, checked on every use. Measured hit rates and
   the end-to-end gain are in EXPERIMENTS.md "TIMELINE". *)
let locate t x =
  let k = t.finger in
  if k < t.nb && t.first.(k) <= x && (k + 1 = t.nb || x < t.first.(k + 1)) then k
  else begin
    let k = last_le t.first 0 t.nb x in
    t.finger <- k;
    k
  end

(* Pool index of the segment of block [b] holding instant [x]. *)
let entry t b x = last_le t.pos (b lsl bshift) ((b lsl bshift) + t.len.(b)) x

(* Append segment [(x, v)] after the last one, opening a new block once the
   last is three-quarters full, so the first changes split no block. *)
let push_back t x v =
  if t.nb = 0 || t.len.(t.order.(t.nb - 1)) >= bsize - (bsize / 4) then begin
    let b = alloc_block t in
    t.pos.(b lsl bshift) <- x;
    t.mn.(b) <- max_int;
    t.mx.(b) <- min_int;
    insert_block t t.nb b
  end;
  let b = t.order.(t.nb - 1) in
  let j = (b lsl bshift) + t.len.(b) in
  t.pos.(j) <- x;
  t.vals.(j) <- v;
  t.len.(b) <- t.len.(b) + 1;
  t.mn.(b) <- imin t.mn.(b) v;
  t.mx.(b) <- imax t.mx.(b) v;
  t.nseg <- t.nseg + 1

(* An empty timeline whose pool holds [n] segments appended by [push_back]
   without growing: growing on the way would allocate each smaller
   generation too. *)
let sized n =
  let blocks = ref 4 in
  while !blocks * (bsize - (bsize / 4)) < n do
    blocks := 2 * !blocks
  done;
  make !blocks

(* The profile's arrays are in normal form: appended as they are. *)
let of_profile (p : Profile.t) =
  let n = Array.length p.times in
  let t = sized n in
  for i = 0 to n - 1 do
    push_back t p.times.(i) p.caps.(i)
  done;
  t

let create c = of_profile (Profile.constant c)

(* Operation counters in the metrics registry (RESA_METRICS): a disabled
   counter costs one flag load per call, cheap enough for these hot ops. *)
let c_min_on = Resa_obs.Metrics.counter "timeline.min_on"
let c_change = Resa_obs.Metrics.counter "timeline.change"
let c_reserve = Resa_obs.Metrics.counter "timeline.reserve"
let c_reserve_failed = Resa_obs.Metrics.counter "timeline.reserve_failed"
let c_earliest_fit = Resa_obs.Metrics.counter "timeline.earliest_fit"
let c_checkpoint = Resa_obs.Metrics.counter "timeline.checkpoint"
let c_rollback = Resa_obs.Metrics.counter "timeline.rollback"
let c_commit = Resa_obs.Metrics.counter "timeline.commit"
let c_undone = Resa_obs.Metrics.counter "timeline.changes_undone"
let c_fit_attempt = Resa_obs.Metrics.counter "timeline.fit_attempts"
let c_gc = Resa_obs.Metrics.counter "timeline.gc"

(* On a gc-rebased timeline the first segment also covers the collapsed
   past [0, off), so clamping instants to the origin answers point and
   window queries below it exactly. *)
let value_at t x =
  if x < 0 then invalid_arg "Timeline: negative time";
  let b = t.order.(locate t (imax x t.off)) in
  t.vals.(entry t b (imax x t.off)) + t.add.(b)

(* Min of [r] and the values at pool indices [j, stop) of block [b] that
   start before [hi]. *)
let rec scan t b j stop hi r =
  if j < stop && t.pos.(j) < hi then scan t b (j + 1) stop hi (imin r (t.vals.(j) + t.add.(b)))
  else r

(* Blocks from order position [k] on: whole ones (the next block starts at
   or before [hi]) by their summary, then the last one entry by entry. *)
let rec scan_blocks t k hi r =
  if k >= t.nb || t.first.(k) >= hi then r
  else begin
    let b = t.order.(k) in
    if k + 1 < t.nb && t.first.(k + 1) <= hi then scan_blocks t (k + 1) hi (imin r t.mn.(b))
    else scan t b (b lsl bshift) ((b lsl bshift) + t.len.(b)) hi r
  end

let min_on t ~lo ~hi =
  Resa_obs.Metrics.incr c_min_on;
  if lo < 0 || lo > hi then invalid_arg "Timeline: bad window";
  if lo = hi then max_int
  else begin
    (* off <= lo < hi *)
    let lo = imax lo t.off and hi = imax hi (t.off + 1) in
    let k = locate t lo in
    let b = t.order.(k) in
    scan_blocks t (k + 1) hi (scan t b (entry t b lo) ((b lsl bshift) + t.len.(b)) hi max_int)
  end

(* --- mutation ------------------------------------------------------------ *)

(* Append block [k+1]'s segments to block [k] and free it. *)
let merge_blocks t k =
  let a = t.order.(k) and c = t.order.(k + 1) in
  let d = t.add.(c) - t.add.(a) and dst = (a lsl bshift) + t.len.(a) and src = c lsl bshift in
  for i = 0 to t.len.(c) - 1 do
    t.pos.(dst + i) <- t.pos.(src + i);
    t.vals.(dst + i) <- t.vals.(src + i) + d
  done;
  t.len.(a) <- t.len.(a) + t.len.(c);
  t.mn.(a) <- imin t.mn.(a) t.mn.(c);
  t.mx.(a) <- imax t.mx.(a) t.mx.(c);
  drop_blocks t (k + 1) 1

let blen t k = t.len.(t.order.(k))

(* After block [k] shrank or split off: fold it into a neighbour when the two
   together fill at most half a block, first the next one, then the one before,
   which may now be small beside the merged block. This keeps every two
   adjacent blocks above half a block ([check] asserts it), so [k]
   segments take at most [2k/9 + 1] blocks. *)
let rebalance t k =
  if k + 1 < t.nb && blen t k + blen t (k + 1) <= bsize / 2 then merge_blocks t k;
  if k > 0 && blen t (k - 1) + blen t k <= bsize / 2 then merge_blocks t (k - 1)

(* Give the entries of the block at order position [k] from index
   [bsize / 2] on to a fresh block placed after it; both keep the pending
   add, so no value is rewritten. The new block may be small beside the
   one after it, so it is rebalanced. *)
let split_block t k =
  let b = t.order.(k) in
  let b' = alloc_block t in
  let h = bsize / 2 and base = b lsl bshift and n = t.len.(b) in
  move t (base + h) (b' lsl bshift) (n - h) 0;
  t.len.(b) <- h;
  t.len.(b') <- n - h;
  t.add.(b') <- t.add.(b);
  refresh t b;
  refresh t b';
  insert_block t (k + 1) b';
  rebalance t (k + 1)

(* One block's part of a change of [d], in one shift. The entries at pool
   indices [m, i) gain [d] and move by [s]: with [s = 1] the breakpoint
   [lo] is inserted at [m], after the entry it splits; with [s = -1] the
   entry before [m], whose segment now equals the one before it, is
   dropped. Then [hi_op = 1] inserts the breakpoint [(hi, hv)], and
   [hi_op = -1] drops entry [i], whose segment now equals the one before
   it. The entries after that follow. The block must have room. *)
let edit t b m s lo i hi_op hi hv d =
  let stop = (b lsl bshift) + t.len.(b) in
  let ts = if hi_op < 0 then i + 1 else i in
  let e = s + hi_op in
  (* The part moving right goes first, from its far end. *)
  if e > 0 then begin
    move t ts (ts + e) (stop - ts) 0;
    move t m (m + s) (i - m) d
  end
  else begin
    move t m (m + s) (i - m) d;
    if e < 0 then move t ts (ts + e) (stop - ts) 0
  end;
  if s > 0 then begin
    t.pos.(m) <- lo;
    t.vals.(m) <- t.vals.(m - 1) + d
  end;
  if hi_op > 0 then begin
    t.pos.(i + s) <- hi;
    t.vals.(i + s) <- hv
  end;
  t.len.(b) <- t.len.(b) + e;
  t.nseg <- t.nseg + e

(* After an edit that changed block [k]'s length by [e]: drop it if empty,
   else refresh its first position and summary and, if it shrank, fold it
   into a small neighbour. *)
let settle t k e =
  let b = t.order.(k) in
  if t.len.(b) = 0 then drop_blocks t k 1
  else begin
    t.first.(k) <- t.pos.(b lsl bshift);
    refresh t b;
    if e < 0 then rebalance t k
  end

(* Value of the last segment of the block at order position [k]. *)
let last_value t k =
  let b = t.order.(k) in
  t.vals.((b lsl bshift) + t.len.(b) - 1) + t.add.(b)

(* Add [d <> 0] on [\[lo, hi)], [off <= lo < hi], in one pass. [lo] is
   located once, from the finger; [hi] is reached by scanning forward.
   Every test reads the old values: a new breakpoint separates a changed
   segment from an unchanged one of the same old value, so only an
   existing breakpoint can merge, at [lo] with the segment before it (its
   value now equals the previous one) and at [hi] with the changed segment
   before it. Both ends then go in with one shift of their block
   ([edit]), the blocks wholly between take the add lazily, and each
   touched block is settled once. A full block that must grow is split
   first and the change located again. *)
let rec apply t lo hi d =
  t.version <- t.version + 1;
  let k = locate t lo in
  let b = t.order.(k) in
  let base = b lsl bshift in
  let j = entry t b lo in
  let kh = ref k in
  while !kh + 1 < t.nb && t.first.(!kh + 1) <= hi do
    incr kh
  done;
  let kh = !kh in
  let bh = t.order.(kh) in
  let baseh = bh lsl bshift in
  let stoph = baseh + t.len.(bh) in
  (* [i]: the first entry of block [kh] at or after [hi]. *)
  let i = ref (if kh = k then j + 1 else baseh) in
  while !i < stoph && t.pos.(!i) < hi do
    incr i
  done;
  let i = !i in
  let s =
    if t.pos.(j) <> lo then 1
    else if
      lo > t.off
      && (if j > base then t.vals.(j - 1) + t.add.(b) else last_value t (k - 1))
         = t.vals.(j) + t.add.(b) + d
    then -1
    else 0
  in
  let hi_op =
    if i = stoph || t.pos.(i) <> hi then 1
    else if
      (if i > baseh then t.vals.(i - 1) + t.add.(bh) else last_value t (kh - 1)) + d
      = t.vals.(i) + t.add.(bh)
    then -1
    else 0
  in
  let m = if s = 0 then j else j + 1 in
  let full =
    if kh = k then if t.len.(b) + s + hi_op > bsize then k else -1
    else if t.len.(b) + s > bsize then k
    else if t.len.(bh) + hi_op > bsize then kh
    else -1
  in
  if full >= 0 then begin
    split_block t full;
    apply t lo hi d
  end
  else if kh = k then begin
    edit t b m s lo i hi_op hi t.vals.(i - 1) d;
    settle t k (s + hi_op)
  end
  else begin
    edit t b m s lo (base + t.len.(b)) 0 hi 0 d;
    for x = k + 1 to kh - 1 do
      let c = t.order.(x) in
      t.add.(c) <- t.add.(c) + d;
      t.mn.(c) <- t.mn.(c) + d;
      t.mx.(c) <- t.mx.(c) + d
    done;
    edit t bh baseh 0 lo i hi_op hi (if hi_op > 0 then t.vals.(i - 1) else 0) d;
    (* The higher block first: settling it moves no block below it. *)
    settle t kh hi_op;
    settle t k s
  end

let log_change t lo hi delta checked =
  let i = 4 * t.ulog_len in
  if i + 4 > Array.length t.ulog then begin
    let b = Array.make (max 32 (2 * Array.length t.ulog)) 0 in
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
    apply t lo hi delta;
    if t.specs > 0 then log_change t lo hi delta checked
  end

let change t ~lo ~hi ~delta = do_change t ~lo ~hi ~delta ~checked:false

(* A mark packs the log length at its checkpoint with the depth of the
   scope it opens (1 for the outermost), so a scope can be resolved only
   by its own mark: a scope nested inside another never hands out the
   enclosing one's mark, even when no change separates the two. *)
let depth_bits = 20
let depth_mask = (1 lsl depth_bits) - 1
let mark_pos m = m asr depth_bits
let mark_depth m = m land depth_mask

let checkpoint t =
  Resa_obs.Metrics.incr c_checkpoint;
  t.specs <- t.specs + 1;
  (t.ulog_len lsl depth_bits) lor t.specs

let stale name = invalid_arg (name ^ ": stale or non-LIFO mark")

let rollback t m =
  let depth = mark_depth m and pos = mark_pos m in
  if depth < 1 || depth > t.specs || pos < 0 || pos > t.ulog_len then stale "Timeline.rollback";
  Resa_obs.Metrics.add c_rollback (t.specs - depth + 1);
  Resa_obs.Metrics.add c_undone (t.ulog_len - pos);
  for i = t.ulog_len - 1 downto pos do
    let j = 4 * i in
    apply t t.ulog.(j) t.ulog.(j + 1) (-t.ulog.(j + 2))
  done;
  t.ulog_len <- pos;
  t.specs <- depth - 1;
  if t.specs = 0 then t.ulog_len <- 0

let commit t m =
  if t.specs = 0 || mark_depth m <> t.specs || m < 0 || mark_pos m > t.ulog_len then
    stale "Timeline.commit";
  Resa_obs.Metrics.incr c_commit;
  t.specs <- t.specs - 1;
  if t.specs = 0 then t.ulog_len <- 0

let open_checkpoints t = t.specs

let spec_ops t m = t.ulog_len - mark_pos m

let spec_op_is_reserve t m ~i ~start ~dur ~need =
  let k = mark_pos m + i in
  let j = 4 * k in
  k >= 0 && k < t.ulog_len
  && t.ulog.(j) = start
  && t.ulog.(j + 1) = start + dur
  && t.ulog.(j + 2) = -need
  && t.ulog.(j + 3) = 1

let reserve t ~start ~dur ~need =
  if dur < 1 then invalid_arg "Timeline.reserve: dur must be >= 1";
  if need < 0 then invalid_arg "Timeline.reserve: negative need";
  if min_on t ~lo:start ~hi:(start + dur) >= need then begin
    Resa_obs.Metrics.incr c_reserve;
    do_change t ~lo:start ~hi:(start + dur) ~delta:(-need) ~checked:true;
    true
  end
  else begin
    Resa_obs.Metrics.incr c_reserve_failed;
    false
  end

(* --- earliest fit --------------------------------------------------------- *)

(* One forward walk over the segments. [cand] is the start of the current
   run of segments with value >= need, or -1 inside a run below it; the
   walk ends at the first segment starting at or past [cand + dur]. A
   whole block with max < need is a blocker, one with min >= need extends
   the run: either way it is consumed without reading its segments.
   Finishing the last block means the tail was read: [cand] is the answer
   when the tail fits, -1 otherwise. Each new candidate counts as one fit
   attempt. *)
let rec fit_blocks t k cand dur need =
  if k >= t.nb then cand
  else begin
    let b = t.order.(k) in
    let st = t.first.(k) in
    if cand >= 0 && st >= cand + dur then cand
    else if t.mx.(b) < need then fit_blocks t (k + 1) (-1) dur need
    else if t.mn.(b) >= need then fit_blocks t (k + 1) (new_cand cand st) dur need
    else fit_entries t k (b lsl bshift) ((b lsl bshift) + t.len.(b)) cand dur need
  end

and fit_entries t k j stop cand dur need =
  if j = stop then fit_blocks t (k + 1) cand dur need
  else begin
    let st = t.pos.(j) in
    if cand >= 0 && st >= cand + dur then cand
    else if t.vals.(j) + t.add.(t.order.(k)) < need then fit_entries t k (j + 1) stop (-1) dur need
    else fit_entries t k (j + 1) stop (new_cand cand st) dur need
  end

and new_cand cand st =
  if cand >= 0 then cand
  else begin
    Resa_obs.Metrics.incr c_fit_attempt;
    st
  end

let earliest_fit_at t ~from ~dur ~need =
  Resa_obs.Metrics.incr c_earliest_fit;
  if dur < 1 then invalid_arg "Timeline.earliest_fit_at: dur must be >= 1";
  if from < 0 then invalid_arg "Timeline.earliest_fit_at: negative from";
  (* Candidates below the gc origin are clamped to it: the collapsed past
     is not schedulable space. *)
  let s = imax from t.off in
  Resa_obs.Metrics.incr c_fit_attempt;
  let k = locate t s in
  let b = t.order.(k) in
  let j = entry t b s in
  let cand = if t.vals.(j) + t.add.(b) >= need then s else -1 in
  fit_entries t k (j + 1) ((b lsl bshift) + t.len.(b)) cand dur need

(* The fit walk from [start] answers [start] exactly when every segment
   meeting [\[start, start + dur)] reaches [need], which is [reserve]'s
   test; so one walk decides the reservation and, when it is refused,
   already holds the earliest fit. The counters read as for [reserve]
   followed, on a refusal, by [earliest_fit_at ~from:start]. *)
let reserve_or_fit t ~start ~dur ~need =
  if dur < 1 then invalid_arg "Timeline.reserve_or_fit: dur must be >= 1";
  if need < 0 then invalid_arg "Timeline.reserve_or_fit: negative need";
  if start < t.off then invalid_arg "Timeline.reserve_or_fit: start below the gc origin";
  let k = locate t start in
  let b = t.order.(k) in
  let j = entry t b start in
  let cand = if t.vals.(j) + t.add.(b) >= need then start else -1 in
  let s = fit_entries t k (j + 1) ((b lsl bshift) + t.len.(b)) cand dur need in
  if s = start then begin
    Resa_obs.Metrics.incr c_reserve;
    do_change t ~lo:start ~hi:(start + dur) ~delta:(-need) ~checked:true
  end
  else begin
    Resa_obs.Metrics.incr c_reserve_failed;
    Resa_obs.Metrics.incr c_earliest_fit;
    Resa_obs.Metrics.incr c_fit_attempt
  end;
  s

(* --- segment walks -------------------------------------------------------- *)

(* Start of the segment after the one at pool index [j] of order position
   [k]; -1 for the tail. *)
let seg_end t k j =
  let b = t.order.(k) in
  if j + 1 < (b lsl bshift) + t.len.(b) then t.pos.(j + 1)
  else if k + 1 < t.nb then t.first.(k + 1)
  else -1

let last_breakpoint t =
  if t.nseg = 1 then 0
  else begin
    let b = t.order.(t.nb - 1) in
    t.pos.((b lsl bshift) + t.len.(b) - 1)
  end

let final_value t =
  let b = t.order.(t.nb - 1) in
  t.vals.((b lsl bshift) + t.len.(b) - 1) + t.add.(b)

(* The area walk from instant [x], inside the segment at pool index [j] of
   order position [k], with [acc] gathered so far: the first instant by
   which [area] is reached, or [limit] once the walk passes it. The hole
   lowers the values on [x, until) by [less]; a segment that [until] cuts
   is walked as its part before [until] and then as the rest. Cutting a
   segment into equal-valued pieces moves no rounded answer (each piece
   gains a whole multiple of its value), so the walk answers exactly as
   it would on the timeline with the hole changed in. A top-level function
   of its arguments, so the walk allocates nothing. *)
let rec reach t k j x acc area limit until less =
  if x >= limit then limit
  else begin
    let b = t.order.(k) in
    let e = seg_end t k j in
    let v = t.vals.(j) + t.add.(b) in
    let v = if x < until then v - less else v in
    let stop = if x < until && (e < 0 || until < e) then until else e in
    if stop < 0 then if v <= 0 then limit else imin limit (x + ((area - acc + v - 1) / v))
    else begin
      let gained = v * (stop - x) in
      if v > 0 && acc + gained >= area then imin limit (x + ((area - acc + v - 1) / v))
      else if stop <> e then reach t k j stop (acc + gained) area limit until less
      else if j + 1 < (b lsl bshift) + t.len.(b) then
        reach t k (j + 1) e (acc + gained) area limit until less
      else reach t (k + 1) (t.order.(k + 1) lsl bshift) e (acc + gained) area limit until less
    end
  end

(* Linear in the segments walked; no allocation. *)
let first_reaching_area t ~from ~until ~less ~area ~cap =
  if from < 0 then invalid_arg "Timeline.first_reaching_area: negative from";
  if area <= 0 then imin from cap
  else begin
    let k = locate t (imax from t.off) in
    reach t k (entry t t.order.(k) (imax from t.off)) from 0 area cap until less
  end

(* The number of segments from pool index [j0] of the block of rank [k0]
   on. *)
let count_from t k0 j0 =
  let n = ref ((t.order.(k0) lsl bshift) - j0) in
  for k = k0 to t.nb - 1 do
    n := !n + t.len.(t.order.(k))
  done;
  !n

(* The segments from the one holding [max from off] on, written into
   exact-size arrays; the first is moved back to 0. *)
let to_profile ?(from = 0) t =
  if from < 0 then invalid_arg "Timeline.to_profile: negative from";
  let x = imax from t.off in
  let k0 = locate t x in
  let b0 = t.order.(k0) in
  let j0 = entry t b0 x in
  let n = count_from t k0 j0 in
  let times = Array.make n 0 and caps = Array.make n (t.vals.(j0) + t.add.(b0)) in
  let i = ref 1 in
  for k = k0 to t.nb - 1 do
    let b = t.order.(k) in
    for j = (if k = k0 then j0 + 1 else b lsl bshift) to (b lsl bshift) + t.len.(b) - 1 do
      times.(!i) <- t.pos.(j);
      caps.(!i) <- t.vals.(j) + t.add.(b);
      incr i
    done
  done;
  Profile.of_arrays times caps

(* The same segments in one walk over the blocks with each block's pending
   add folded in, appended to a pool sized for them; the first is moved
   back to 0. *)
let copy ?(from = 0) t =
  if from < 0 then invalid_arg "Timeline.copy: negative from";
  let x = imax from t.off in
  let k0 = locate t x in
  let b0 = t.order.(k0) in
  let j0 = entry t b0 x in
  let c = sized (count_from t k0 j0) in
  push_back c 0 (t.vals.(j0) + t.add.(b0));
  for k = k0 to t.nb - 1 do
    let b = t.order.(k) in
    for j = (if k = k0 then j0 + 1 else b lsl bshift) to (b lsl bshift) + t.len.(b) - 1 do
      push_back c t.pos.(j) (t.vals.(j) + t.add.(b))
    done
  done;
  c

let node_count t = t.nseg

(* History garbage collection: the blocks wholly before [upto] go back to
   the pool and the block holding [upto] drops its dead prefix, so [upto]
   starts the first segment. O(dead blocks + blocks), no rebuild. *)
let gc t ~upto =
  Resa_obs.Metrics.incr c_gc;
  if upto < 0 then invalid_arg "Timeline.gc: negative upto";
  if t.specs > 0 then invalid_arg "Timeline.gc: checkpoint outstanding";
  (* The origin never moves backwards. *)
  let upto = imax upto t.off in
  t.version <- t.version + 1;
  let k = locate t upto in
  for i = 0 to k - 1 do
    t.nseg <- t.nseg - t.len.(t.order.(i))
  done;
  drop_blocks t 0 k;
  let b = t.order.(0) in
  let base = b lsl bshift in
  let dead = entry t b upto - base in
  if dead > 0 then begin
    Array.blit t.pos (base + dead) t.pos base (t.len.(b) - dead);
    Array.blit t.vals (base + dead) t.vals base (t.len.(b) - dead);
    t.len.(b) <- t.len.(b) - dead;
    t.nseg <- t.nseg - dead;
    refresh t b
  end;
  t.pos.(base) <- upto;
  t.first.(0) <- upto;
  t.off <- upto;
  rebalance t 0

let origin t = t.off

let version t = t.version

let check t =
  let fail fmt = Printf.ksprintf failwith ("Timeline.check: " ^^ fmt) in
  if t.nb < 1 then fail "no block";
  if t.first.(0) <> t.off then fail "first segment starts at %d, origin %d" t.first.(0) t.off;
  let total = ref 0 and last_pos = ref min_int and last_v = ref 0 in
  for k = 0 to t.nb - 1 do
    let b = t.order.(k) in
    let n = t.len.(b) and base = b lsl bshift in
    if n < 1 || n > bsize then fail "block %d holds %d segments" k n;
    if t.first.(k) <> t.pos.(base) then fail "block %d: stale first position" k;
    let lo = ref max_int and hi = ref min_int in
    for j = base to base + n - 1 do
      let v = t.vals.(j) + t.add.(b) in
      if !total > 0 || j > base then begin
        if t.pos.(j) <= !last_pos then fail "segment at %d out of order" t.pos.(j);
        if v = !last_v then fail "segments at %d and %d not merged" !last_pos t.pos.(j)
      end;
      last_pos := t.pos.(j);
      last_v := v;
      lo := imin !lo v;
      hi := imax !hi v
    done;
    if t.mn.(b) <> !lo || t.mx.(b) <> !hi then fail "block %d: stale min/max" k;
    if k > 0 && blen t (k - 1) + n <= bsize / 2 then
      fail "blocks %d and %d hold %d segments together" (k - 1) k (blen t (k - 1) + n);
    total := !total + n
  done;
  if !total <> t.nseg then fail "%d segments counted, %d stored" t.nseg !total
