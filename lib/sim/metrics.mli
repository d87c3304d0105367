(** Standard batch-scheduling metrics over simulation traces.

    Two evaluation paths share one accumulation kernel: {!summarize} folds
    a finished trace's record list, and {!Stream} folds records one at a
    time as a streamed replay produces them — never holding the trace.
    Integer-valued sums (waits, work) are exact by construction; float sums
    (slowdowns) go through the exactly-rounded, order-independent
    [Resa_stats.Stats.Fsum], so the two paths return bit-identical
    summaries even though they observe records in different orders
    (streaming sees start order, batch sees submission order). The
    differential suite in [test/test_stream.ml] enforces this. *)

type summary = {
  n : int;
  makespan : int;
  mean_wait : float;  (** Mean of [start − submit]. *)
  max_wait : int;
  mean_slowdown : float;  (** Mean of [(wait + p) / p]. *)
  mean_bounded_slowdown : float;
      (** Mean of [max 1 ((wait + p) / max p bound)] — the classic metric
          that stops very short jobs from dominating. *)
  utilization : float;
      (** Job work over available processor·time in [\[0, makespan)]. *)
}

type job_row = {
  id : int;
  job_number : int;
      (** Archive provenance: the source trace's job number (field 1) when
          a [job_numbers] map is supplied to {!per_job}, the renumbered id
          otherwise — so rows from a real SWF file can be joined back to
          the original trace. *)
  submit : int;
  start : int;
  wait : int;  (** [start − submit]. *)
  finish : int;  (** [start + p] (actual runtime). *)
  p : int;
  q : int;
  slowdown : float;
  bounded_slowdown : float;
  provenance : string;
      (** How the job came to start — e.g. ["started-now"] or
          ["backfilled-ahead-of-head"] from a {!Resa_obs.Trace} event
          stream; [""] when no provenance source was supplied. *)
}

val summarize : ?bound:int -> Simulator.trace -> summary
(** One pass over the records — no instance or schedule is rebuilt, no
    intermediate lists are allocated. [bound] is the bounded-slowdown
    runtime threshold; it defaults to [10] (in the simulator's abstract
    time unit), the customary cutoff below which a job's slowdown is
    clamped so that very short jobs do not dominate the mean. On an
    {e empty} trace the result is explicit about being degenerate: [n = 0],
    [makespan = 0], means at their neutral values ([mean_wait = 0.],
    slowdowns [1.]) and [utilization = Float.nan] — there is no elapsed
    time to utilise, and [nan] cannot be mistaken for a measured ratio. *)

val per_job :
  ?bound:int ->
  ?provenance:(int -> string) ->
  ?job_numbers:int array ->
  Simulator.trace ->
  job_row list
(** Per-job metric rows, in submission order. [bound] as in {!summarize}.
    [provenance] maps a job id to its provenance label (the provenance of
    the job's [Job_start] trace event); defaults to [fun _ -> ""].
    [job_numbers] maps the renumbered id to the source trace's job number
    (the [job_number] of each [Swf_stream.arrival], in arrival
    order); defaults to the identity. *)

val per_job_csv : ?run:string -> job_row list -> string
(** Render rows as CSV with a header line. With [?run], a leading [run]
    column carrying that name is prepended to every row. *)

(** Incremental metrics for streamed replays: observe each record as the
    simulator emits it ([Simulator.run_stream]'s [on_record]), in O(1)
    memory, and summarise at any point. Means, extrema and utilization are
    exact — bit-identical to {!summarize} on the same record set — and the
    wait-time median/95th percentile are P² sketches
    ([Resa_stats.Stats.P2]: exact up to 5 samples, heuristic beyond, not
    part of {!summary}). *)
module Stream : sig
  type t

  val create : ?bound:int -> m:int -> reservations:Resa_core.Reservation.t list -> unit -> t
  (** [bound] as in {!summarize}; [m] and [reservations] define the
      availability the utilization denominator integrates over. *)

  val observe : t -> Simulator.record -> unit
  val count : t -> int

  val summary : t -> summary
  (** Summary of everything observed so far; the degenerate record on zero
      observations, exactly like {!summarize}. *)

  val wait_p50 : t -> float
  (** P² estimate of the median wait; [nan] before any observation. *)

  val wait_p95 : t -> float
  (** P² estimate of the 95th-percentile wait; [nan] before any
      observation. *)
end

val header : string
(** Column header matching {!row}. *)

val row : name:string -> summary -> string
(** One fixed-width table row, for experiment output. *)
