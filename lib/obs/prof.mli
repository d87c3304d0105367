(** Wall-clock spans, the process clock and peak RSS (the nondeterministic
    half of the observability layer; deterministic events live in {!Trace},
    counters, gauges and histograms in {!Metrics}).

    Timing data collected here is kept strictly out of deterministic
    outputs: it feeds Chrome trace exports and the bench trajectory JSON,
    never tables or schedules. There is one observability switch, the one
    of {!Metrics} ([RESA_METRICS=1], [--metrics] or {!Metrics.enable}):
    with it off, {!with_span} costs a single flag load and branch. The span
    store is mutexed, so worker domains may record concurrently.

    {!enable}, {!disable}, {!counters} and {!reset} are views of that one
    switch and registry, kept for callers that treat profiling as a unit. *)

val now_ns : unit -> int
(** Monotonic nanoseconds ([CLOCK_MONOTONIC]; never decreases, unaffected
    by NTP slews). Works whether or not collection is enabled. *)

type span = { name : string; cat : string; domain : int; start_ns : int; dur_ns : int }

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk, recording a span when collection is enabled (also on
    exception). [cat] defaults to ["span"]. *)

val spans : unit -> span list
(** Completed spans, ordered by start time. *)

val enable : unit -> unit
(** {!Metrics.enable}. *)

val disable : unit -> unit
(** {!Metrics.disable}. *)

val counters : unit -> (string * int) list
(** Every registry counter with its current value, sorted by name. *)

val reset : unit -> unit
(** {!Metrics.reset}, and drop all spans. *)

val peak_rss_kb : unit -> int option
(** The process's peak resident set size (Linux [VmHWM], in kB) — what a
    long replay reports to prove its footprint stayed flat. [None] where
    [/proc/self/status] is unavailable. Works whether or not collection is
    enabled; like all wall-clock data here it must never feed deterministic
    outputs. *)
