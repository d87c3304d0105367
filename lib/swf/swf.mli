(** Standard Workload Format (SWF) traces.

    The interchange format of the Parallel Workloads Archive: one job per
    line, 18 integer fields, [';'] comment lines. This repository cannot
    ship production traces (DESIGN.md §5), so this module provides the
    format itself — line scanner, conversion rule, writer — plus a
    synthetic generator with archive-like marginals, making every
    trace-driven experiment reproducible from a seed and portable to real
    SWF files.

    Field reference (1-based as in the specification): 1 job number,
    2 submit time, 3 wait time, 4 run time, 5 allocated processors,
    6 average CPU time, 7 used memory, 8 requested processors,
    9 requested time, 10 requested memory, 11 status, 12 user, 13 group,
    14 application, 15 queue, 16 partition, 17 preceding job,
    18 think time. Unknown values are [-1].

    There is one reader, {!Swf_stream}: it runs {!scan} in place over its
    read block and converts each kept line with {!keep_fields} and
    {!arrival_of_fields}. A trace held as entries (such as {!generate}'s)
    is read by rendering it with {!to_string} and streaming the text, the
    path an archive file takes. *)

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

val to_line : entry -> string

val to_string : ?comments:string list -> entry list -> string
(** Render a trace, with optional [';']-prefixed header comments. *)

(** {2 The line scanner} *)

val scan : bytes -> pos:int -> stop:int -> int array -> int
(** [scan b ~pos ~stop fields] scans the line [b.[pos .. stop-1]] (no
    ['\n'] inside), writing field [i] (0-based) to [fields.(i)] of an
    array of at least 18 slots. Returns [0] for a blank or comment line and
    [18] when all 18 fields were written; anything else is an error, which
    {!scan_error} renders. Tokens are separated by runs of [' '], ['\t']
    and ['\r'] (so CRLF traces parse); a line of those alone is blank, and
    [';'] starts a comment only in column 0. A line with fewer than 18
    tokens is an error citing its token count; otherwise the first of the
    18 fields that is neither an integer nor a float is. Float fields
    truncate, except run and requested time (fields 4 and 9), which round
    up. Fields beyond the 18th are tolerated and ignored (some archive
    files carry trailing annotations). Allocates nothing unless a token is
    not a plain decimal (an optional ['-'] and 1–18 digits). *)

val scan_error : bytes -> pos:int -> stop:int -> int -> string
(** The message for an error code that {!scan} returned on the same line:
    ["expected 18 fields, found N"], or ["field NAME: \"TOKEN\" is not a
    number"] for the first bad field. *)

type arrival = {
  job : Job.t;  (** Actual runtime and width, id renumbered over kept entries. *)
  submit : int;  (** Clamped to [>= 0]. *)
  estimate : int;  (** Requested walltime, at least [Job.p job]. *)
  job_number : int;  (** Field 1 of the source line — archive provenance. *)
}
(** One kept entry in simulator terms, as {!Swf_stream} yields it. *)

val keep_fields : keep_failed:bool -> int array -> bool
(** Whether the entry whose fields {!scan} wrote is kept: it carries work
    (a positive [run] or [req_time]; entries with neither are jobs
    cancelled before starting) and, unless [keep_failed], did not fail
    ([status <> 0]). Failed jobs occupied the machine, so readers keep
    them by default. *)

val arrival_of_fields : m:int -> id:int -> int array -> arrival
(** The one conversion rule, on the fields {!scan} wrote for a {e kept}
    entry, with the caller supplying the id (readers renumber kept entries
    consecutively from 0):
    - runtime [p] is [run], or [req_time] when the runtime is unknown
      ([run <= 0]), at least 1;
    - width is [req_procs] (falling back to [alloc_procs]), clamped to
      [\[1, m\]];
    - submit is clamped to [>= 0];
    - estimate is [max p req_time]: the user's requested walltime, never
      below the actual runtime — the walltime-accuracy data real SWF
      traces carry.

    Allocates only the job and the record. *)

val generate :
  ?overestimate:float -> Prng.t -> m:int -> n:int -> max_runtime:int -> mean_gap:float -> entry list
(** Synthetic archive-like trace: power-of-two-biased widths, log-uniform
    runtimes, Poisson arrivals ({!Resa_gen.Arrivals.poisson}).
    [overestimate] (default 1.0, must be >= 1.0) sets the mean factor by
    which requested walltimes exceed actual runtimes — archive traces
    commonly show factors of 2–10. *)
