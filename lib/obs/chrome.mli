(** Chrome trace-event JSON exporter (loadable in Perfetto / chrome://tracing).

    A slice is one rectangle on a track: for simulation traces, one track
    per cluster processor inside a per-run process (built by
    [Resa_sim.Sim_trace.chrome_slices]); for executor profiling, one track
    per pool domain ({!of_spans}). Only complete events (ph ["X"]) and
    process/thread-name metadata are emitted, so the output is a single
    well-formed JSON object — validated by [python3 -m json.tool] in CI. *)

type slice = {
  process : string;  (** Process group (e.g. policy name, or "executor"). *)
  track : string;  (** Track within the process (e.g. ["cpu 3"], ["domain 1"]). *)
  name : string;  (** Slice label (e.g. ["J17"]). *)
  cat : string;  (** Category; [""] defaults to ["sim"]. *)
  ts_us : int;  (** Start, microseconds. Simulation time maps 1 unit = 1 µs. *)
  dur_us : int;
  args : (string * string) list;  (** Extra key/values shown on click. *)
}

val write : out_channel -> slice list -> unit
(** The complete JSON document ([{"traceEvents": [...]}]) and a newline.
    Deterministic: pids/tids are assigned in first-appearance order. *)

val of_spans : ?process:string -> Prof.span list -> slice list
(** Wall-clock {!Prof} spans as slices, one track per domain, rebased so
    the earliest span starts at 0. *)
