(** Wall-clock spans and operation counters (the nondeterministic half of
    the observability layer; deterministic events live in {!Trace}).

    Timing data collected here is kept strictly out of deterministic
    outputs: it feeds Chrome trace exports and the bench trajectory JSON,
    never tables or schedules. Profiling is {e off} by default — enable
    with [RESA_PROF=1] or {!enable} — and the disabled path of {!incr},
    {!add}, {!with_span} and {!add_busy} is a single flag load and branch,
    cheap enough for Timeline and policy hot loops to call
    unconditionally. All state is domain-safe (atomic counters, mutexed
    span store). *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val now_ns : unit -> int
(** Wall-clock nanoseconds (works whether or not profiling is enabled). *)

type counter

val counter : string -> counter
(** Interned by name: the same name always yields the same counter. Create
    once at module level, not per call. *)

val incr : counter -> unit
(** No-op when profiling is disabled. *)

val add : counter -> int -> unit
val value : counter -> int

val counters : unit -> (string * int) list
(** All registered counters with current values, sorted by name. *)

type span = { name : string; cat : string; domain : int; start_ns : int; dur_ns : int }

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk, recording a span when profiling is enabled (also on
    exception). [cat] defaults to ["span"]. *)

val spans : unit -> span list
(** Completed spans, ordered by start time. *)

val add_busy : int -> unit
(** Credit the calling domain with busy nanoseconds (executor pool task
    accounting). No-op when disabled. *)

val busy_ns : unit -> (int * int) list
(** Per-domain busy nanoseconds accumulated so far, keyed by the real
    domain id (the table grows on demand, so distinct domains never merge
    however many pools the process has spawned), ascending ids, zero
    entries omitted. *)

val reset : unit -> unit
(** Zero all counters and busy accumulators, drop all spans. *)

val peak_rss_kb : unit -> int option
(** The process's peak resident set size (Linux [VmHWM], in kB) — what a
    long replay reports to prove its footprint stayed flat. [None] where
    [/proc/self/status] is unavailable. Works whether or not profiling is
    enabled; like all wall-clock data here it must never feed deterministic
    outputs. *)
