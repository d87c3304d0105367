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
   included. A range change splits at its two ends, edits the entries of
   the partial blocks, adds lazily to the whole blocks in between and
   merges equal neighbours at the two ends. Queries scan partial blocks and
   read the summaries of whole ones. Freed pool blocks go on a free list
   and the pool only grows by doubling, so steady-state operation allocates
   nothing. *)

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
  (* Undo log: packed (lo, hi, delta, checked) quads of every mutation
     applied while at least one checkpoint is outstanding; [checked] marks
     capacity-verified [reserve]s, which is what lets the simulator prove a
     speculative log is exactly its authoritative reservation sequence and
     commit it instead of rolling back and re-applying. Rollback replays
     inverses from the top. Segments are normalised, so the inverses
     restore exactly the same segment list. With no checkpoint outstanding
     nothing is recorded: one branch per mutation. *)
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

(* Move [n] ints of [a] from [src] to [dst] (the ranges may overlap).
   Within a block that is at most [bsize] entries, where a loop beats the
   runtime call [Array.blit] makes. *)
let shift (a : int array) src dst n =
  if dst > src then
    for i = n - 1 downto 0 do
      a.(dst + i) <- a.(src + i)
    done
  else
    for i = 0 to n - 1 do
      a.(dst + i) <- a.(src + i)
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
   searches mostly land in the same block: a change searches its two ends
   five times in all (split, add, merge), and a decision's queries cluster
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

let of_steps times values n =
  if n < 1 || times.(0) <> 0 then invalid_arg "Timeline.of_steps: first step must start at 0";
  let t = sized n in
  for i = 0 to n - 1 do
    if i > 0 && (times.(i) <= times.(i - 1) || values.(i) = values.(i - 1)) then
      invalid_arg "Timeline.of_steps: steps not in normal form";
    push_back t times.(i) values.(i)
  done;
  t

let of_profile p =
  let bps = Profile.breakpoints p in
  of_steps bps (Array.map (Profile.value_at p) bps) (Array.length bps)

let create c = of_profile (Profile.constant c)

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
let c_gc = Resa_obs.Metrics.counter "timeline.gc"

(* On a gc-rebased timeline the first segment also covers the collapsed
   past [0, off), so clamping instants to the origin answers point and
   window queries below it exactly. *)
let value_at t x =
  if x < 0 then invalid_arg "Timeline: negative time";
  let b = t.order.(locate t (imax x t.off)) in
  t.vals.(entry t b (imax x t.off)) + t.add.(b)

let pick want_min r v = if want_min then imin r v else imax r v

(* Fold [pick] over the values at pool indices [j, stop) of block [b]
   that start before [hi]. *)
let rec scan t b j stop hi want_min r =
  if j < stop && t.pos.(j) < hi then
    scan t b (j + 1) stop hi want_min (pick want_min r (t.vals.(j) + t.add.(b)))
  else r

(* Blocks from order position [k] on: whole ones (the next block starts at
   or before [hi]) by their summary, then the last one entry by entry. *)
let rec scan_blocks t k hi want_min r =
  if k >= t.nb || t.first.(k) >= hi then r
  else begin
    let b = t.order.(k) in
    if k + 1 < t.nb && t.first.(k + 1) <= hi then
      scan_blocks t (k + 1) hi want_min (pick want_min r (if want_min then t.mn.(b) else t.mx.(b)))
    else scan t b (b lsl bshift) ((b lsl bshift) + t.len.(b)) hi want_min r
  end

(* Min (or max) over [lo, hi), off <= lo < hi. *)
let window t lo hi ~want_min =
  let k = locate t lo in
  let b = t.order.(k) in
  scan_blocks t (k + 1) hi want_min
    (scan t b (entry t b lo) ((b lsl bshift) + t.len.(b)) hi want_min
       (if want_min then max_int else min_int))

let min_on t ~lo ~hi =
  Resa_obs.Metrics.incr c_min_on;
  if lo < 0 || lo > hi then invalid_arg "Timeline: bad window";
  if lo = hi then max_int else window t (imax lo t.off) (imax hi (t.off + 1)) ~want_min:true

let max_on t ~lo ~hi =
  if lo < 0 || lo > hi then invalid_arg "Timeline: bad window";
  if lo = hi then min_int else window t (imax lo t.off) (imax hi (t.off + 1)) ~want_min:false

(* --- mutation ------------------------------------------------------------ *)

(* Insert instant [x] as a breakpoint inside the segment at pool index [j]
   of block [b], which has room. *)
let insert_after t b j x =
  let stop = (b lsl bshift) + t.len.(b) in
  shift t.pos (j + 1) (j + 2) (stop - j - 1);
  shift t.vals (j + 1) (j + 2) (stop - j - 1);
  t.pos.(j + 1) <- x;
  t.vals.(j + 1) <- t.vals.(j);
  t.len.(b) <- t.len.(b) + 1;
  t.nseg <- t.nseg + 1

(* Make [x] a segment start; [true] when it was not one. A full block
   first gives its upper half to a fresh block placed after it; both
   halves keep the pending add, so no value is rewritten. *)
let split_at t x =
  let k = locate t x in
  let b = t.order.(k) in
  let j = entry t b x in
  t.pos.(j) <> x
  && begin
    if t.len.(b) < bsize then insert_after t b j x
    else begin
      let b' = alloc_block t in
      let h = bsize / 2 and base = b lsl bshift in
      shift t.pos (base + h) (b' lsl bshift) (bsize - h);
      shift t.vals (base + h) (b' lsl bshift) (bsize - h);
      t.len.(b) <- h;
      t.len.(b') <- bsize - h;
      t.add.(b') <- t.add.(b);
      refresh t b;
      refresh t b';
      insert_block t (k + 1) b';
      if j >= base + h then insert_after t b' (j - base - h + (b' lsl bshift)) x
      else insert_after t b j x
    end;
    true
  end

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

(* After block [k] shrank: fold it into a neighbour when the two together
   fill at most half a block, so block count stays within ~4x segments/bsize. *)
let rebalance t k =
  let n = t.len.(t.order.(k)) in
  if k + 1 < t.nb && n + t.len.(t.order.(k + 1)) <= bsize / 2 then merge_blocks t k
  else if k > 0 && t.len.(t.order.(k - 1)) + n <= bsize / 2 then merge_blocks t (k - 1)

(* Drop the breakpoint at [x > off] when the segment starting there has
   the value of the one before it. *)
let merge_at t x =
  let k = locate t x in
  let b = t.order.(k) in
  let base = b lsl bshift in
  let j = entry t b x in
  let prev =
    if j > base then t.vals.(j - 1) + t.add.(b)
    else
      let pb = t.order.(k - 1) in
      t.vals.((pb lsl bshift) + t.len.(pb) - 1) + t.add.(pb)
  in
  if t.vals.(j) + t.add.(b) = prev then begin
    let stop = base + t.len.(b) in
    shift t.pos (j + 1) j (stop - j - 1);
    shift t.vals (j + 1) j (stop - j - 1);
    t.len.(b) <- t.len.(b) - 1;
    t.nseg <- t.nseg - 1;
    if t.len.(b) = 0 then drop_blocks t k 1
    else begin
      (* A value equal to one left in the block cannot have been its only
         extreme; one carried over from the previous block may have been. *)
      if j = base then begin
        t.first.(k) <- t.pos.(base);
        refresh t b
      end;
      rebalance t k
    end
  end

(* Add [d] to the entries of block [b] from pool index [j] on that start
   before [hi]; then its summary is recomputed. *)
let add_entries t b j hi d =
  let j = ref j in
  while !j < (b lsl bshift) + t.len.(b) && t.pos.(!j) < hi do
    t.vals.(!j) <- t.vals.(!j) + d;
    incr j
  done;
  refresh t b

(* Add [d] on [lo, hi), both already segment starts: entry by entry in the
   first and last blocks, lazily in the whole blocks between. *)
let add_range t lo hi d =
  let k = locate t lo in
  add_entries t t.order.(k) (entry t t.order.(k) lo) hi d;
  let k = ref (k + 1) in
  while !k < t.nb && t.first.(!k) < hi do
    let b = t.order.(!k) in
    if !k + 1 < t.nb && t.first.(!k + 1) <= hi then begin
      t.add.(b) <- t.add.(b) + d;
      t.mn.(b) <- t.mn.(b) + d;
      t.mx.(b) <- t.mx.(b) + d
    end
    else add_entries t b (b lsl bshift) hi d;
    incr k
  done

(* A breakpoint [split_at] just made separates a changed segment from an
   unchanged one of the same old value, so only pre-existing ones can
   merge. *)
let apply t lo hi d =
  let new_lo = split_at t lo in
  let new_hi = split_at t hi in
  add_range t lo hi d;
  if not new_hi then merge_at t hi;
  if not (new_lo || lo = t.off) then merge_at t lo

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
    apply t t.ulog.(j) t.ulog.(j + 1) (-t.ulog.(j + 2))
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
  && t.ulog.(j) = start
  && t.ulog.(j + 1) = start + dur
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
  if dur < 1 then invalid_arg "Timeline.earliest_fit: dur must be >= 1";
  if from < 0 then invalid_arg "Timeline.earliest_fit: negative from";
  (* Candidates below the gc origin are clamped to it: the collapsed past
     is not schedulable space. *)
  let s = imax from t.off in
  Resa_obs.Metrics.incr c_fit_attempt;
  let k = locate t s in
  let b = t.order.(k) in
  let j = entry t b s in
  let cand = if t.vals.(j) + t.add.(b) >= need then s else -1 in
  fit_entries t k (j + 1) ((b lsl bshift) + t.len.(b)) cand dur need

let earliest_fit t ~from ~dur ~need =
  match earliest_fit_at t ~from ~dur ~need with -1 -> None | s -> Some s

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

(* Linear in the segments walked; no allocation. *)
let first_reaching_area t ~from ~area ~cap:limit =
  if from < 0 then invalid_arg "Timeline.first_reaching_area: negative from";
  if area <= 0 then imin from limit
  else begin
    let rec go k j x acc =
      if x >= limit then limit
      else begin
        let b = t.order.(k) in
        let v = t.vals.(j) + t.add.(b) in
        let e = seg_end t k j in
        if e < 0 then if v <= 0 then limit else imin limit (x + ((area - acc + v - 1) / v))
        else begin
          let gained = v * (e - x) in
          if v > 0 && acc + gained >= area then imin limit (x + ((area - acc + v - 1) / v))
          else if j + 1 < (b lsl bshift) + t.len.(b) then go k (j + 1) e (acc + gained)
          else go (k + 1) (t.order.(k + 1) lsl bshift) e (acc + gained)
        end
      end
    in
    let k = locate t (imax from t.off) in
    go k (entry t t.order.(k) (imax from t.off)) from 0
  end

let to_profile ?(from = 0) t =
  if from < 0 then invalid_arg "Timeline.to_profile: negative from";
  let x = imax from t.off in
  let k = ref (locate t x) in
  let j = ref (entry t t.order.(!k) x) in
  let acc = ref [] and go = ref true in
  while !go do
    let b = t.order.(!k) in
    (* The first segment reaches back to 0. *)
    acc := ((match !acc with [] -> 0 | _ -> t.pos.(!j)), t.vals.(!j) + t.add.(b)) :: !acc;
    if !j + 1 < (b lsl bshift) + t.len.(b) then incr j
    else if !k + 1 < t.nb then begin
      incr k;
      j := t.order.(!k) lsl bshift
    end
    else go := false
  done;
  Profile.of_steps (List.rev !acc)

(* The segments from the one holding [max from off] on, in one walk over
   the blocks with each block's pending add folded in, appended to a pool
   sized for them; the first is moved back to 0. *)
let copy ?(from = 0) t =
  if from < 0 then invalid_arg "Timeline.copy: negative from";
  let x = imax from t.off in
  let k0 = locate t x in
  let b0 = t.order.(k0) in
  let j0 = entry t b0 x in
  let n = ref ((b0 lsl bshift) - j0) in
  for k = k0 to t.nb - 1 do
    n := !n + t.len.(t.order.(k))
  done;
  let c = sized !n in
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
    total := !total + n
  done;
  if !total <> t.nseg then fail "%d segments counted, %d stored" t.nseg !total

let pp ppf t = Profile.pp ppf (to_profile t)
