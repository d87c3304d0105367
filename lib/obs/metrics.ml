(* Typed metrics registry — the one registry and the one switch of the
   observability layer. Where [Trace] records *what happened* (a typed
   event per occurrence, gigabytes at 10M jobs), this module keeps bounded
   aggregates: named counters, gauges and log2-bucketed histograms that a
   heartbeat sampler or a serving daemon can snapshot at any instant in
   O(registry size). Every layer counts here — simulator events, timeline
   operations, policy decisions, LSRC instants, BnB prunes, executor busy
   time — and [Prof]'s spans follow the same flag.

   - Disabled cost: collection is off by default (enable with
     RESA_METRICS=1 or [enable]); the disabled path of [incr], [add],
     [set] and [observe] is one flag load and a branch, cheap enough for
     timeline and simulator hot loops to call unconditionally.

   - Domain safety: cells are atomics, registration is mutexed, so worker
     domains may bump shared instruments concurrently. Sums of atomic adds
     are order-independent, which keeps snapshots deterministic for
     deterministic workloads regardless of pool size.

   - Determinism segregation: metric *values* derived from simulation data
     (waits, queue depths, node counts) are deterministic; anything
     wall-clock lives under the reserved "wall." name prefix and is kept
     out of deterministic outputs by every consumer ([is_wall] is the
     test). [Prof]'s spans are wall-clock by construction and never enter
     the registry. *)

let flag =
  ref
    (match Sys.getenv_opt "RESA_METRICS" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let enabled () = !flag [@@inline]
let enable () = flag := true
let disable () = flag := false

let wall_prefix = "wall."

let is_wall name =
  String.length name >= 5 && String.sub name 0 5 = wall_prefix

(* --- instruments -------------------------------------------------------- *)

type counter = { cname : string; ccell : int Atomic.t }
type gauge = { gname : string; gcell : int Atomic.t }

(* Buckets are powers of two: bucket 0 counts observations <= 0, bucket i
   (1 <= i < 63) counts observations in [2^(i-1), 2^i - 1], and the last
   bucket absorbs everything larger. 63 buckets cover the full positive
   int range, so no observation is ever out of range. *)
let hist_buckets = 63

type histogram = {
  hname : string;
  counts : int Atomic.t array;
  hsum : int Atomic.t;
  hcount : int Atomic.t;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 32
let registry_mutex = Mutex.create ()

let intern name make describe =
  Mutex.lock registry_mutex;
  let i =
    match Hashtbl.find_opt registry name with
    | Some i -> i
    | None ->
      let i = make () in
      Hashtbl.add registry name i;
      i
  in
  Mutex.unlock registry_mutex;
  match describe i with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Metrics: %S already registered with another kind" name)

let counter cname =
  intern cname
    (fun () -> Counter { cname; ccell = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)

let gauge gname =
  intern gname
    (fun () -> Gauge { gname; gcell = Atomic.make 0 })
    (function Gauge g -> Some g | _ -> None)

let histogram hname =
  intern hname
    (fun () ->
      Histogram
        {
          hname;
          counts = Array.init hist_buckets (fun _ -> Atomic.make 0);
          hsum = Atomic.make 0;
          hcount = Atomic.make 0;
        })
    (function Histogram h -> Some h | _ -> None)

let incr c = if !flag then Atomic.incr c.ccell [@@inline]
let add c n = if !flag then ignore (Atomic.fetch_and_add c.ccell n) [@@inline]
let value c = Atomic.get c.ccell

let set g v = if !flag then Atomic.set g.gcell v [@@inline]

(* floor(log2 v) + 1 for v >= 1 (bucket upper bound 2^i - 1), 0 for v <= 0. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      i := !i + 1;
      v := !v lsr 1
    done;
    min !i (hist_buckets - 1)
  end

let bucket_le i = if i = 0 then 0 else (1 lsl i) - 1

let observe h v =
  if !flag then begin
    ignore (Atomic.fetch_and_add h.counts.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.hsum v);
    ignore (Atomic.fetch_and_add h.hcount 1)
  end
  [@@inline]


(* --- snapshots ----------------------------------------------------------- *)

type hist_view = { count : int; sum : int; buckets : (int * int) list }

type view = Counter_v of int | Gauge_v of int | Histogram_v of hist_view

let hist_view h =
  (* Cumulative counts at each power-of-two upper bound, trimmed to the
     occupied prefix: the list ends at the first bucket whose cumulative
     count reaches [count] (so an empty histogram has no buckets). *)
  let count = Atomic.get h.hcount and sum = Atomic.get h.hsum in
  let buckets = ref [] in
  let cum = ref 0 in
  (try
     for i = 0 to hist_buckets - 1 do
       cum := !cum + Atomic.get h.counts.(i);
       if !cum > 0 then buckets := (bucket_le i, !cum) :: !buckets;
       if !cum >= count then raise Exit
     done
   with Exit -> ());
  { count; sum; buckets = List.rev !buckets }

let snapshot () =
  Mutex.lock registry_mutex;
  let all = Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  all
  |> List.map (fun (name, i) ->
         ( name,
           match i with
           | Counter c -> Counter_v (Atomic.get c.ccell)
           | Gauge g -> Gauge_v (Atomic.get g.gcell)
           | Histogram h -> Histogram_v (hist_view h) ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- Prometheus text exposition ------------------------------------------ *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let expose () =
  (* Prometheus text format 0.0.4: one [# TYPE] line per metric, names
     prefixed [resa_], dots flattened to underscores. Histograms render
     their cumulative power-of-two buckets plus the mandatory [+Inf]. *)
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let pname = "resa_" ^ sanitize name in
      match v with
      | Counter_v n ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" pname pname n)
      | Gauge_v n ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n%s %d\n" pname pname n)
      | Histogram_v h ->
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" pname);
        List.iter
          (fun (le, cum) ->
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" pname le cum))
          h.buckets;
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n" pname h.count
             pname h.sum pname h.count))
    (snapshot ());
  Buffer.contents b

(* --- reset --------------------------------------------------------------- *)

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> Atomic.set c.ccell 0
      | Gauge g -> Atomic.set g.gcell 0
      | Histogram h ->
        Array.iter (fun a -> Atomic.set a 0) h.counts;
        Atomic.set h.hsum 0;
        Atomic.set h.hcount 0)
    registry;
  Mutex.unlock registry_mutex
