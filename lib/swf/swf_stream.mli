(** Constant-memory SWF ingestion.

    A stream is a pull iterator over the jobs of a trace: each call yields
    the next kept entry already converted to simulator terms, and nothing —
    no line list, no entry list, no job array — is retained behind it. This
    is the input side of the streaming replay path (DESIGN.md §9): a 10M-job
    archive trace flows through the simulator in one pass at flat RSS.

    The file reader fills one reused 64 KiB block with [In_channel.input]
    and parses each line where it sits with {!Swf.scan}, the tokenizer
    behind [Swf.parse_line], into one reused field array. The block grows
    only to hold a line longer than itself. A kept line allocates its job,
    its arrival and the option around it, nothing else.

    Conversion semantics are shared with the batch converters by
    construction — {!Swf.keep_fields} and {!Swf.arrival_of_fields} run the
    field-level rules the converters apply to entries, ids renumbered
    consecutively over kept entries — so draining a stream yields exactly
    [Swf.to_estimated_workload] plus the archive job number (the
    differential suite in [test/test_stream.ml] pins this). *)

open Resa_core

type arrival = Swf.arrival = {
  job : Job.t;  (** Actual runtime and width, id renumbered over kept entries. *)
  submit : int;  (** Clamped to [>= 0] like the batch converters. *)
  estimate : int;  (** Requested walltime, at least [Job.p job]. *)
  job_number : int;  (** Field 1 of the source line — archive provenance. *)
}

type t = unit -> arrival option
(** Pull the next arrival; [None] is end of trace (and is sticky for every
    source defined here). Streams are single-pass and not thread-safe. *)

exception Parse_error of { line : int; msg : string }
(** Raised by pulls on a malformed line, with its 1-based line number — the
    streaming counterpart of [Swf.parse_string]'s [Error]. *)

val with_file : ?keep_failed:bool -> m:int -> string -> (t -> 'a) -> 'a
(** [with_file path f] opens [path] and hands [f] a stream that reads it
    block by block, on demand; the channel is closed when [f] returns or
    raises. [keep_failed] defaults to true, as in the batch converters. *)

val of_string : ?keep_failed:bool -> m:int -> string -> t
(** Stream over an in-memory trace: the same reader, with the text as its
    one block. The small-n differential oracle against [Swf.parse_string]
    + [Swf.to_estimated_workload]. *)

val synthetic :
  ?overestimate:float -> Prng.t -> m:int -> n:int -> max_runtime:int -> mean_gap:float -> t
(** Deterministic synthetic trace of [n] jobs drawn one at a time — the
    source behind [resa replay --synthetic], usable at sizes where
    [Swf.generate] would not fit in memory. Marginals match
    [Swf.generate] (power-of-two-biased widths, log-uniform runtimes,
    Poisson arrivals, walltime overestimation factor with the given mean)
    but all draws for job [i] are interleaved at pull time, so for a given
    seed this is its {e own} reproducible family, not bit-equal to the
    materialised generator. Submit times are non-decreasing; job numbers
    are [1..n]. *)
