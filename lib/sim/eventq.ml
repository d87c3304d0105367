(* Calendar queue over unboxed int arrays; see the .mli for the layout.

   Invariants, maintained by every operation:
   - every bucket cell's time lies in [cursor, cursor + nb), so a bucket
     holds cells of exactly one timestamp and [time land mask] is a
     bijection on the window;
   - the overflow heap's minimum is >= cursor + nb (events migrate into
     buckets the moment the window reaches them), so bucket chains stay
     appended in seq order — all overflow pushes of a timestamp precede
     its first in-window push, and migration runs before that push can
     land;
   - cursor <= earliest queued time, and it only moves backwards on a
     push before it (rebase), which evicts newly out-of-window cells back
     to the heap. *)

let nb_bits = 15
let nb = 1 lsl nb_bits
let mask = nb - 1

(* 32 bucket-occupancy bits per word: bit 63 of an OCaml int is the sign,
   so a full 64-bit word cannot be built with [1 lsl]. *)
let bm_words = nb lsr 5

type t = {
  bhead : int array; (* bucket -> first cell, -1 when empty *)
  btail : int array; (* bucket -> last cell, -1 when empty *)
  bitmap : int array; (* bit per bucket: chain non-empty *)
  mutable cursor : int; (* window start; <= earliest queued time *)
  mutable near : int; (* cells held in buckets *)
  (* cell pool: parallel arrays linked through [cnext], recycled via the
     [cfree] list; [cused] is the never-yet-allocated high-water mark. *)
  mutable ctime : int array;
  mutable cseq : int array;
  mutable cpay : int array;
  mutable cnext : int array;
  mutable cfree : int;
  mutable cused : int;
  far : Int_heap.t; (* overflow: key = time, tie = seq, value = payload *)
  mutable len : int;
  mutable next_seq : int;
}

let impl_name = "calendar"

let create () =
  {
    bhead = Array.make nb (-1);
    btail = Array.make nb (-1);
    bitmap = Array.make bm_words 0;
    cursor = 0;
    near = 0;
    ctime = Array.make 64 0;
    cseq = Array.make 64 0;
    cpay = Array.make 64 0;
    cnext = Array.make 64 (-1);
    cfree = -1;
    cused = 0;
    far = Int_heap.create ();
    len = 0;
    next_seq = 0;
  }

let is_empty q = q.len = 0
let size q = q.len

(* Count trailing zeros of a non-zero value < 2^32, by shadowing (local
   refs would heap-allocate on the hot peek path). *)
let ctz x =
  let x = x land -x in
  let h = x land 0xFFFF = 0 in
  let n = if h then 16 else 0
  and x = if h then x lsr 16 else x in
  let h = x land 0xFF = 0 in
  let n = if h then n + 8 else n
  and x = if h then x lsr 8 else x in
  let h = x land 0xF = 0 in
  let n = if h then n + 4 else n
  and x = if h then x lsr 4 else x in
  let h = x land 0x3 = 0 in
  let n = if h then n + 2 else n
  and x = if h then x lsr 2 else x in
  if x land 0x1 = 0 then n + 1 else n

let grow a = Array.append a (Array.make (Array.length a) 0)

let alloc_cell q =
  if q.cfree >= 0 then begin
    let c = q.cfree in
    q.cfree <- q.cnext.(c);
    c
  end
  else begin
    if q.cused = Array.length q.ctime then begin
      q.ctime <- grow q.ctime;
      q.cseq <- grow q.cseq;
      q.cpay <- grow q.cpay;
      q.cnext <- grow q.cnext
    end;
    let c = q.cused in
    q.cused <- c + 1;
    c
  end

(* Append to the bucket chain: pushes arrive in seq order and migration
   precedes any same-time push (see header), so chains stay FIFO. *)
let bucket_add q time seq pay =
  let c = alloc_cell q in
  q.ctime.(c) <- time;
  q.cseq.(c) <- seq;
  q.cpay.(c) <- pay;
  q.cnext.(c) <- -1;
  let b = time land mask in
  let last = q.btail.(b) in
  if last < 0 then begin
    q.bhead.(b) <- c;
    q.bitmap.(b lsr 5) <- q.bitmap.(b lsr 5) lor (1 lsl (b land 31))
  end
  else q.cnext.(last) <- c;
  q.btail.(b) <- c;
  q.near <- q.near + 1

(* Pop the heap minimum into its bucket (caller checked it is in-window). *)
let far_pop_into_bucket q =
  bucket_add q (Int_heap.min_key q.far) (Int_heap.min_tie q.far) (Int_heap.min_value q.far);
  Int_heap.drop_min q.far

(* Re-establish far_min >= cursor + nb after the cursor advanced. *)
let migrate q =
  while Int_heap.length q.far > 0 && Int_heap.min_key q.far < q.cursor + nb do
    far_pop_into_bucket q
  done

(* A push before the cursor (never from the simulator, exercised by the
   differential tests): move the window start back. Bucket mapping is
   cursor-independent, so surviving cells stay put; cells now beyond the
   shrunk window go back to the heap. The heap minimum was >= old
   cursor + nb > new cursor + nb, so the heap-side invariant holds. *)
let rebase q time =
  let lim = time + nb in
  for w = 0 to bm_words - 1 do
    if q.bitmap.(w) <> 0 then
      for bit = 0 to 31 do
        let b = (w lsl 5) lor bit in
        if q.bhead.(b) >= 0 && q.ctime.(q.bhead.(b)) >= lim then begin
          (* whole chain shares one timestamp: evict it cell by cell *)
          let rec evict c =
            if c >= 0 then begin
              let next = q.cnext.(c) in
              Int_heap.push q.far ~key:q.ctime.(c) ~tie:q.cseq.(c) q.cpay.(c);
              q.cnext.(c) <- q.cfree;
              q.cfree <- c;
              q.near <- q.near - 1;
              evict next
            end
          in
          evict q.bhead.(b);
          q.bhead.(b) <- -1;
          q.btail.(b) <- -1;
          q.bitmap.(w) <- q.bitmap.(w) land lnot (1 lsl bit)
        end
      done
  done;
  q.cursor <- time

let push q ~time pay =
  if time < 0 then invalid_arg "Eventq.push: negative time";
  if q.len = 0 then q.cursor <- time
  else if time < q.cursor then rebase q time;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  q.len <- q.len + 1;
  if time < q.cursor + nb then bucket_add q time seq pay
  else Int_heap.push q.far ~key:time ~tie:seq pay

(* First set bit at or after [sb] in circular bucket order; the caller
   guarantees near > 0, so a set bit exists. *)
let rec scan_words q w w0 sb =
  let word = if w = w0 then q.bitmap.(w0) land lnot (-1 lsl (sb land 31)) else q.bitmap.(w) in
  if word <> 0 then (w lsl 5) lor ctz word else scan_words q ((w + 1) land (bm_words - 1)) w0 sb

let scan_bitmap q sb =
  let w0 = sb lsr 5 in
  let first = q.bitmap.(w0) land (-1 lsl (sb land 31)) in
  if first <> 0 then (w0 lsl 5) lor ctz first
  else scan_words q ((w0 + 1) land (bm_words - 1)) w0 sb

let peek_time q =
  if q.len = 0 then -1
  else begin
    let t =
      if q.near > 0 then begin
        let sb = q.cursor land mask in
        let b = scan_bitmap q sb in
        q.cursor + ((b - sb) land mask)
      end
      else Int_heap.min_key q.far
    in
    if t > q.cursor then begin
      q.cursor <- t;
      migrate q
    end;
    t
  end

let pop q =
  let t = peek_time q in
  if t < 0 then invalid_arg "Eventq.pop: empty";
  let b = t land mask in
  let c = q.bhead.(b) in
  let pay = q.cpay.(c) in
  let next = q.cnext.(c) in
  q.bhead.(b) <- next;
  if next < 0 then begin
    q.btail.(b) <- -1;
    q.bitmap.(b lsr 5) <- q.bitmap.(b lsr 5) land lnot (1 lsl (b land 31))
  end;
  q.cnext.(c) <- q.cfree;
  q.cfree <- c;
  q.near <- q.near - 1;
  q.len <- q.len - 1;
  pay

let clear q =
  Array.fill q.bhead 0 nb (-1);
  Array.fill q.btail 0 nb (-1);
  Array.fill q.bitmap 0 bm_words 0;
  q.cursor <- 0;
  q.near <- 0;
  q.cfree <- -1;
  q.cused <- 0;
  Int_heap.clear q.far;
  q.len <- 0;
  q.next_seq <- 0
