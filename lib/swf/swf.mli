(** Standard Workload Format (SWF) traces.

    The interchange format of the Parallel Workloads Archive: one job per
    line, 18 integer fields, [';'] comment lines. This repository cannot
    ship production traces (DESIGN.md §5), so this module provides the
    format itself — strict parser, writer, converters — plus a synthetic
    generator with archive-like marginals, making every trace-driven
    experiment reproducible from a seed and portable to real SWF files.

    Field reference (1-based as in the specification): 1 job number,
    2 submit time, 3 wait time, 4 run time, 5 allocated processors,
    6 average CPU time, 7 used memory, 8 requested processors,
    9 requested time, 10 requested memory, 11 status, 12 user, 13 group,
    14 application, 15 queue, 16 partition, 17 preceding job,
    18 think time. Unknown values are [-1].

    Every reader goes through one line scanner ({!scan}): [parse_line]
    and [parse_string] view a string through it, and {!Swf_stream} runs it
    in place over its read block. It converts plain decimal tokens while it
    scans them and builds no token strings or lists, so the batch and
    streaming readers cannot disagree on any line, error texts included. *)

open Resa_core

type entry = {
  job_number : int;
  submit : int;
  wait : int;
  run : int;
  alloc_procs : int;
  avg_cpu : int;
  used_mem : int;
  req_procs : int;
  req_time : int;
  req_mem : int;
  status : int;
  user : int;
  group : int;
  app : int;
  queue : int;
  partition : int;
  preceding : int;
  think_time : int;
}

val default : entry
(** All fields [-1] except [job_number = 0], [submit = 0]. *)

val parse_line : string -> (entry option, string) result
(** [Ok None] for comment and blank lines; [Error _] names the offending
    field. Tokens are separated by runs of [' '], ['\t'] and ['\r'] (so
    CRLF traces parse); a line of those alone is blank, and [';'] starts a
    comment only in column 0. A line with fewer than 18 tokens is an error
    citing its token count; otherwise the first of the 18 fields that is
    neither an integer nor a float is. Float fields truncate, except run
    and requested time (fields 4 and 9), which round up. Fields beyond the
    18th are tolerated and ignored (some archive files carry trailing
    annotations). *)

val parse_string : string -> (entry list, string) result
(** Whole-file parse; errors are prefixed with the 1-based line number. *)

val to_line : entry -> string

val to_string : ?comments:string list -> entry list -> string
(** Render a trace, with optional [';']-prefixed header comments. *)

(** {2 The scanner shared with {!Swf_stream}} *)

val scan : bytes -> pos:int -> stop:int -> int array -> int
(** [scan b ~pos ~stop fields] scans the line [b.[pos .. stop-1]] (no
    ['\n'] inside) under {!parse_line}'s rules, writing field [i]
    (0-based) to [fields.(i)] of an array of at least 18 slots. Returns
    [0] for a blank or comment line and [18] when all 18 fields were
    written; anything else is an error, which {!scan_error} renders.
    Allocates nothing unless a token is not a plain decimal (an optional
    ['-'] and 1–18 digits). *)

val scan_error : bytes -> pos:int -> stop:int -> int -> string
(** The message of {!parse_line}'s [Error] for an error code that {!scan}
    returned on the same line. *)

val to_workload : ?keep_failed:bool -> entry list -> m:int -> (Job.t * int) list
(** [(job, submit)] pairs ready for the simulator or {!Resa_algos.Online}:
    processors are [req_procs] (falling back to [alloc_procs]), clamped to
    [\[1, m\]]; runtimes are [run] (falling back to [req_time], minimum 1).
    Entries with neither a positive [run] nor a positive [req_time] (jobs
    cancelled before starting) represent no work and are skipped — they
    used to become phantom 1-second jobs. Jobs with [status = 0] (failed)
    are kept by default — they occupied the machine — and dropped with
    [~keep_failed:false]. Ids are renumbered consecutively over the kept
    entries. *)

val of_workload : (Job.t * int * int) list -> entry list
(** [(job, submit, start)] triples (e.g. a finished simulation) back to SWF
    entries with [wait = start − submit]. *)

val to_estimated_workload :
  ?keep_failed:bool -> entry list -> m:int -> (Job.t * int * int) list
(** [(job, submit, requested_walltime)] triples for
    [Resa_sim.Simulator.run ~estimates]: the job carries the *actual* runtime
    while the third component is the user's request ([req_time], clamped to
    at least the actual runtime) — the walltime-accuracy data real SWF
    traces carry. Filters entries exactly like {!to_workload}. *)

type arrival = {
  job : Job.t;  (** Actual runtime and width, id renumbered over kept entries. *)
  submit : int;  (** Clamped to [>= 0] like the batch converters. *)
  estimate : int;  (** Requested walltime, at least [Job.p job]. *)
  job_number : int;  (** Field 1 of the source line — archive provenance. *)
}
(** One kept entry in simulator terms, as {!Swf_stream} yields it. *)

val keep_fields : keep_failed:bool -> int array -> bool
(** The converters' filter on the fields {!scan} wrote: the entry carries
    work (positive [run] or [req_time]) and, unless [keep_failed], did not
    fail. The converters apply the same field-level rule to entries, so
    the streaming reader cannot drift from the batch one. *)

val arrival_of_fields : m:int -> id:int -> int array -> arrival
(** Convert the fields {!scan} wrote for one {e kept} entry exactly as
    {!to_estimated_workload} converts the entry, with the caller supplying
    the renumbered id, through the same field-level kernel. Allocates
    only the job and the record. *)

val job_numbers : ?keep_failed:bool -> entry list -> int array
(** Archive job numbers of the kept entries, indexed by the renumbered job
    id the converters assign — the provenance map that lets per-job metric
    rows name jobs as the original trace does. Same [keep_failed] default
    (true) and filter as {!to_workload}. *)

val generate :
  ?overestimate:float -> Prng.t -> m:int -> n:int -> max_runtime:int -> mean_gap:float -> entry list
(** Synthetic archive-like trace: power-of-two-biased widths, log-uniform
    runtimes, Poisson arrivals ({!Resa_gen.Arrivals.poisson}).
    [overestimate] (default 1.0, must be >= 1.0) sets the mean factor by
    which requested walltimes exceed actual runtimes — archive traces
    commonly show factors of 2–10. *)
