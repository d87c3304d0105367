(** Typed metrics registry: counters, gauges and log2-bucketed histograms.

    The one registry of the observability layer, behind heartbeat
    snapshots and the Prometheus-style exposition — bounded aggregates
    where {!Trace} keeps per-event records. Every layer counts here:
    simulator events ([sim.*]), timeline operations ([timeline.*]), policy
    decisions ([policy.decide.*]), LSRC instants ([lsrc.*]), BnB search
    effort ([bnb.*]) and executor busy time ([wall.par.busy_ns]).

    {!enable} is also the one switch: it turns on these instruments and
    {!Prof}'s spans alike. Collection is {e off} by default (enable with
    [RESA_METRICS=1], [--metrics] or {!enable}); the disabled path of
    {!incr}, {!add}, {!set} and {!observe} is a single flag load and
    branch, cheap enough for timeline and simulator hot loops to call
    unconditionally — and with collection off every deterministic output
    of the program is byte-identical to a build without telemetry
    (tested).

    All state is domain-safe: cells are atomics, registration is mutexed.
    Because atomic additions commute, a snapshot of a deterministic
    workload is identical at any executor pool size.

    {b Determinism convention.} Metric values derived from simulation data
    (waits, queue depths, timeline node counts) are deterministic and may
    feed deterministic outputs (heartbeat rows, test goldens). Any metric
    carrying wall-clock data {e must} be named under the reserved
    ["wall."] prefix — {!is_wall} is the test — and consumers keep such
    metrics strictly inside their segregated wall-clock sections, as
    {!Prof} keeps spans out of tables. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val is_wall : string -> bool
(** [true] iff the name is under the reserved ["wall."] prefix (wall-clock
    data, to be kept out of deterministic outputs). *)

(** {2 Instruments}

    Interned by name: the same name always yields the same instrument;
    re-registering a name as a different kind raises [Invalid_argument].
    Create once at module level, not per call. *)

type counter

val counter : string -> counter
val incr : counter -> unit
(** No-op when collection is disabled (likewise {!add}, {!set},
    {!observe}). *)

val add : counter -> int -> unit

val value : counter -> int
(** Reads work whether or not collection is enabled. *)

type gauge

val gauge : string -> gauge

val set : gauge -> int -> unit
(** Last-write-wins point-in-time value (queue depth, node count). *)

type histogram

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record one observation. Buckets are powers of two: bucket [0] counts
    observations [<= 0], bucket [i >= 1] counts observations in
    [\[2^(i-1), 2^i - 1\]]; 63 buckets cover the whole positive [int]
    range, so nothing is ever out of range. *)

(** {2 Snapshots} *)

type hist_view = {
  count : int;
  sum : int;
  buckets : (int * int) list;
      (** [(le, cumulative count)] per occupied bucket, ascending [le]
          (each [le] is [2^i - 1]), trimmed after the bucket where the
          cumulative count reaches [count]. *)
}

type view = Counter_v of int | Gauge_v of int | Histogram_v of hist_view

val snapshot : unit -> (string * view) list
(** Every registered instrument with its current value, sorted by name —
    deterministic for a deterministic workload. *)

val expose : unit -> string
(** Prometheus text exposition (format 0.0.4) of the whole registry:
    names are prefixed [resa_] and flattened to [\[a-zA-Z0-9_\]],
    histograms render cumulative power-of-two buckets plus [+Inf], [_sum]
    and [_count]. The exposition surface for a future [resa serve]
    daemon; wall-clock metrics appear here too — the registry, unlike
    deterministic outputs, is allowed to carry them. *)

val reset : unit -> unit
(** Zero every instrument (registrations are kept). *)
