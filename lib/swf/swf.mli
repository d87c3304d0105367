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
    18 think time. Unknown values are [-1]. *)

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
    field. Fields beyond the 18th are tolerated and ignored (some archive
    files carry trailing annotations). *)

val parse_string : string -> (entry list, string) result
(** Whole-file parse; errors are prefixed with the 1-based line number. *)

val to_line : entry -> string

val to_string : ?comments:string list -> entry list -> string
(** Render a trace, with optional [';']-prefixed header comments. *)

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

val keep : keep_failed:bool -> entry -> bool
(** The filter both converters apply: the entry carries work (positive [run]
    or [req_time]) and, unless [keep_failed], did not fail. Exposed so the
    streaming reader ({!Swf_stream}) provably applies the same rule. *)

val estimated_of_entry : m:int -> id:int -> entry -> Job.t * int * int
(** Convert one {e kept} entry exactly as {!to_estimated_workload} does,
    with the caller supplying the renumbered id — the shared kernel of the
    batch and streaming paths. *)

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
