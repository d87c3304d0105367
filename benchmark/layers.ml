(* Per-layer accounting for the traced replay, and the isolation passes that
   replay one layer alone on the input the traced replay recorded.

   The traced replay wraps the public entry point of each layer with two
   reads of the monotonic clock: the arrival pull (swf_stream), the
   policy's decide closure (policy), on_record into Metrics.Stream
   (metrics_stream) and on_heartbeat (heartbeat). The run_stream call
   itself is the simulator span; the simulator's self time is that span
   minus its children. One call in [keep_every] also leaves its span in
   memory for the Chrome trace. *)

open Resa_core
module Sim = Resa_sim.Simulator
module Policy = Resa_sim.Policy
module Eventq = Resa_sim.Eventq

let now () = Int64.to_int (Monotonic_clock.now ())

type layer = {
  name : string;
  mutable ns : int;
  mutable calls : int;
  mutable kept : int;
  kept_start : int array;
  kept_dur : int array;
}

let keep_every = 1024
let max_kept = 4096

let layer name =
  {
    name;
    ns = 0;
    calls = 0;
    kept = 0;
    kept_start = Array.make max_kept 0;
    kept_dur = Array.make max_kept 0;
  }

let tick l t0 t1 =
  l.ns <- l.ns + (t1 - t0);
  if l.calls land (keep_every - 1) = 0 && l.kept < max_kept then begin
    l.kept_start.(l.kept) <- t0;
    l.kept_dur.(l.kept) <- t1 - t0;
    l.kept <- l.kept + 1
  end;
  l.calls <- l.calls + 1

let chrome_slices layers =
  List.concat_map
    (fun l ->
      List.init l.kept (fun i ->
          Resa_obs.Prof.
            {
              name = l.name;
              cat = "layer";
              domain = 0;
              start_ns = l.kept_start.(i);
              dur_ns = l.kept_dur.(i);
            }))
    layers
  |> List.sort (fun (a : Resa_obs.Prof.span) b -> compare a.start_ns b.start_ns)
  |> Resa_obs.Chrome.of_spans ~process:"replay"

(* A policy whose decide closure is timed into [l]; [productive] counts the
   decisions that started at least one job. *)
let timed_policy (p : Policy.t) l ~productive =
  {
    p with
    Policy.create =
      (fun ~obs ->
        let decide = p.Policy.create ~obs in
        fun ~time ~queue ~free ->
          let t0 = now () in
          let a = decide ~time ~queue ~free in
          tick l t0 (now ());
          if a.Policy.start_now <> [] then incr productive;
          a);
  }

(* Growable int array. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 1024 0; len = 0 }

  let reserve b n =
    if n > Array.length b.a then begin
      let a = Array.make (max n (2 * Array.length b.a)) 0 in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end

  let push b x =
    reserve b (b.len + 1);
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let set b i x =
    reserve b (i + 1);
    b.a.(i) <- x;
    if i >= b.len then b.len <- i + 1

  let get b i = b.a.(i)
  let length b = b.len
end

(* One part's start log: estimates by job id, captured by the wrapped pull,
   and one entry per start in start order. Finish times follow from
   [start + p]. *)
type log = {
  machine : int;
  resv : Reservation.t list;
  est : Ibuf.t;
  start : Ibuf.t;
  id : Ibuf.t;
  p : Ibuf.t;
  q : Ibuf.t;
  submit : Ibuf.t;
}

let log_create ~machine ~resv =
  {
    machine;
    resv;
    est = Ibuf.create ();
    start = Ibuf.create ();
    id = Ibuf.create ();
    p = Ibuf.create ();
    q = Ibuf.create ();
    submit = Ibuf.create ();
  }

let log_arrival l (a : Sim.arrival) = Ibuf.set l.est (Job.id a.job) a.estimate

let log_start l (r : Sim.record) =
  Ibuf.push l.start r.start;
  Ibuf.push l.id (Job.id r.job);
  Ibuf.push l.p (Job.p r.job);
  Ibuf.push l.q (Job.q r.job);
  Ibuf.push l.submit r.submit

let finish l i = Ibuf.get l.start i + Ibuf.get l.p i

(* Repeat [pass] until it has timed [min_ops] operations or spent
   [max_ns] in all; ns per operation. [pass] returns the operations it
   performed and the ns it spent on them, so that building its input (a
   fresh queue or timeline per part, which dominates on the exact family's
   small parts) stays off the clock. *)
let min_ops = 500_000
let max_ns = 500_000_000

let ns_per_op pass =
  let ops = ref 0 and ns = ref 0 and t0 = now () in
  while !ops = 0 || (!ops < min_ops && now () - t0 < max_ns) do
    let k, t = pass () in
    ops := !ops + max 1 k;
    ns := !ns + t
  done;
  float_of_int !ns /. float_of_int !ops

(* The completion stream through the public Eventq API: each start pushes
   its finish; before a start at t, every completion due at or before t is
   popped, as the engine drains them. *)
let eventq_ns_per_op logs =
  ns_per_op (fun () ->
      List.fold_left
        (fun (ops, ns) l ->
          let q = Eventq.create () in
          let ops = ref ops in
          let t0 = now () in
          for i = 0 to Ibuf.length l.start - 1 do
            let t = Ibuf.get l.start i in
            while
              let pt = Eventq.peek_time q in
              pt >= 0 && pt <= t
            do
              ignore (Eventq.pop q : int);
              incr ops
            done;
            Eventq.push q ~time:(finish l i) i;
            incr ops
          done;
          while not (Eventq.is_empty q) do
            ignore (Eventq.pop q : int);
            incr ops
          done;
          (!ops, ns + (now () - t0)))
        (0, 0) logs)

(* The engine's authoritative timeline mutations, in engine order: reserve
   the estimated window at each start, give back the unused tail at each
   finish (completions at t before starts at t), and gc every 1000
   completions like [run_stream ~gc_every:1000]. Packed as (lo, hi, delta)
   triples; delta 0 marks [gc ~upto:lo]. *)
type timeline_ops = { avail : Profile.t; ops : int array; n_ops : int }

let timeline_ops l =
  let k = Ibuf.length l.start in
  let est i = Ibuf.get l.est (Ibuf.get l.id i) in
  (* Equal finish times complete in start order, the event queue's FIFO. *)
  let order = Array.init k Fun.id in
  Array.stable_sort (fun a b -> compare (finish l a) (finish l b)) order;
  let buf = Ibuf.create () in
  let emit lo hi delta =
    Ibuf.push buf lo;
    Ibuf.push buf hi;
    Ibuf.push buf delta
  in
  let j = ref 0 and completions = ref 0 in
  let complete_until t =
    while !j < k && finish l order.(!j) <= t do
      let i = order.(!j) in
      incr j;
      let f = finish l i and planned = Ibuf.get l.start i + est i in
      if f < planned then emit f planned (Ibuf.get l.q i);
      incr completions;
      if !completions mod 1000 = 0 then emit f f 0
    done
  in
  for i = 0 to k - 1 do
    let t = Ibuf.get l.start i in
    complete_until t;
    emit t (t + est i) (-Ibuf.get l.q i)
  done;
  complete_until max_int;
  {
    avail = Instance.availability_of ~m:l.machine ~reservations:l.resv;
    ops = Array.sub buf.Ibuf.a 0 (Ibuf.length buf);
    n_ops = Ibuf.length buf / 3;
  }

(* The simulator also rebases its timeline on its own when the live span
   or the node count passes 16384 (Simulator.auto_gc_span/auto_gc_nodes);
   the pass applies the same rule before each start, or the tree outgrows
   the cache and the pass measures misses the engine never pays. *)
let auto_gc = 16384

let timeline_ns_per_op logs =
  let all = List.map timeline_ops logs in
  ns_per_op (fun () ->
      List.fold_left
        (fun (ops, ns) o ->
          let tl = Timeline.of_profile o.avail in
          let ops = ref (ops + o.n_ops) in
          let t0 = now () in
          for i = 0 to o.n_ops - 1 do
            let lo = o.ops.(3 * i) and hi = o.ops.((3 * i) + 1) and delta = o.ops.((3 * i) + 2) in
            if delta = 0 then Timeline.gc tl ~upto:lo
            else begin
              if delta < 0 && (lo - Timeline.origin tl > auto_gc || Timeline.node_count tl > auto_gc)
              then begin
                Timeline.gc tl ~upto:lo;
                incr ops
              end;
              Timeline.change tl ~lo ~hi ~delta
            end
          done;
          (!ops, ns + (now () - t0)))
        (0, 0) all)
