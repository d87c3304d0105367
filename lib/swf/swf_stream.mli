(** Constant-memory SWF ingestion.

    A stream is a pull iterator over the jobs of a trace: each call yields
    the next kept entry already converted to simulator terms, and nothing —
    no line list, no entry list, no job array — is retained behind it. This
    is the input side of the streaming replay path (DESIGN.md §9): a 10M-job
    archive trace flows through the simulator in one pass at flat RSS.

    This is the repository's one SWF reader and its one synthetic
    workload: archive files and the files [resa trace] writes go through
    {!with_file}, and experiments draw their traces from {!synthetic}.

    The file reader fills one reused 64 KiB block with [In_channel.input]
    and parses each line where it sits with {!Swf.scan} into one reused
    field array. The block grows only to hold a line longer than itself.
    A kept line allocates its job, its arrival and the option around it,
    nothing else.

    Each line {!Swf.keep_fields} keeps is converted by
    {!Swf.arrival_of_fields}, the one conversion rule, with ids renumbered
    consecutively over kept entries. The differential suites in
    [test/test_swf.ml] and [test/test_stream.ml] pin the reader against an
    independent split-based reference ([test/swf_reference.ml]). *)

open Resa_core

type arrival = Swf.arrival = {
  job : Job.t;  (** Actual runtime and width, id renumbered over kept entries. *)
  submit : int;  (** Clamped to [>= 0]. *)
  estimate : int;  (** Requested walltime, at least [Job.p job]. *)
  job_number : int;  (** Field 1 of the source line — archive provenance. *)
}

type t = unit -> arrival option
(** Pull the next arrival; [None] is end of trace (and is sticky for every
    source defined here). Streams are single-pass and not thread-safe. *)

exception Parse_error of { line : int; msg : string }
(** Raised by pulls on a malformed line, with its 1-based line number and
    {!Swf.scan_error}'s message. *)

val with_file : ?keep_failed:bool -> m:int -> string -> (t -> 'a) -> 'a
(** [with_file path f] opens [path] and hands [f] a stream that reads it
    block by block, on demand; the channel is closed when [f] returns or
    raises. [keep_failed] (default true) keeps failed jobs
    ({!Swf.keep_fields}). *)

val of_string : ?keep_failed:bool -> m:int -> string -> t
(** Stream over an in-memory trace: the same reader, with the text as its
    one block. *)

val synthetic :
  ?overestimate:float -> Prng.t -> m:int -> n:int -> max_runtime:int -> mean_gap:float -> t
(** Deterministic synthetic trace of [n] jobs drawn one at a time — the
    repository's only synthetic workload, behind [resa replay], [resa
    trace], the T3/T4 experiments and the benchmark. Widths are
    power-of-two-biased in [\[1, m\]], runtimes log-uniform in
    [\[1, max_runtime\]], arrivals Poisson with mean gap [mean_gap], and
    each estimate is the runtime times a factor uniform in
    [\[1, 2 * overestimate - 1\]] (mean [overestimate]). All draws for job
    [i] happen at its pull, in one fixed order (width, runtime, gap, then
    the factor, drawn only when [overestimate > 1.0]), so the stream is a
    pure function of the seed and the arguments, and every overestimate
    above 1.0 draws the same jobs. Submit times are non-decreasing; job
    numbers are [1..n]. A pull allocates only the job, its arrival and the
    option. Raises [Invalid_argument] if [overestimate < 1.0], [n < 0],
    [mean_gap <= 0.0], [m < 1] or [max_runtime < 1]. *)
