(* Wall-clock spans, the process clock and peak RSS — the nondeterministic
   half of the observability layer. Everything here is timing data: it is
   never written into deterministic outputs (tables, schedules, JSONL event
   traces), only into Chrome exports and bench trajectory JSON.

   Spans share the one observability switch of [Metrics] (RESA_METRICS=1,
   --metrics or [Metrics.enable]); the disabled path of [with_span] is one
   flag load and a branch. Spans record which domain produced them. *)

(* Monotonic nanoseconds (CLOCK_MONOTONIC): immune to NTP slews, and the
   same clock the benchmark harness reads, so spans, decision latencies and
   replay wall times all agree. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* --- spans -------------------------------------------------------------- *)

type span = { name : string; cat : string; domain : int; start_ns : int; dur_ns : int }

let spans_store : span list ref = ref []
let spans_mutex = Mutex.create ()

let record_span s =
  Mutex.lock spans_mutex;
  spans_store := s :: !spans_store;
  Mutex.unlock spans_mutex

let with_span ?(cat = "span") name f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let start_ns = now_ns () in
    let finish () =
      record_span
        {
          name;
          cat;
          domain = (Domain.self () :> int);
          start_ns;
          dur_ns = now_ns () - start_ns;
        }
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () =
  Mutex.lock spans_mutex;
  let l = !spans_store in
  Mutex.unlock spans_mutex;
  (* Start-time order: stable enough for reports, and independent of the
     completion interleaving across domains. *)
  List.stable_sort (fun a b -> compare (a.start_ns, a.name) (b.start_ns, b.name)) l

(* --- views of the registry ----------------------------------------------- *)

let enable = Metrics.enable
let disable = Metrics.disable

let counters () =
  List.filter_map (function n, Metrics.Counter_v v -> Some (n, v) | _ -> None) (Metrics.snapshot ())

let reset () =
  Metrics.reset ();
  Mutex.lock spans_mutex;
  spans_store := [];
  Mutex.unlock spans_mutex

(* --- process memory ------------------------------------------------------ *)

let peak_rss_kb () =
  (* VmHWM from /proc/self/status: the process's resident-set high-water
     mark in kB. Linux-only by construction; [None] elsewhere. *)
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | lines ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = "VmHWM" ->
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          let digits = String.to_seq rest |> Seq.filter (fun c -> c >= '0' && c <= '9') in
          int_of_string_opt (String.of_seq digits)
        | _ -> None)
      lines
  | exception Sys_error _ -> None
