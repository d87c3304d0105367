(** Heartbeat rows: the JSONL wire format around {!Simulator.heartbeat}.

    A streamed replay with a sampler attached emits one JSON object per
    snapshot ([{"ev":"heartbeat", ...}], run-tagged like trace events).
    Simulation-data fields — the sampler's counts, the P² wait quantiles,
    utilization and the deterministic registry section — live at the top
    level and are identical across runs and executor pool sizes.
    Wall-clock enrichment is segregated under the single ["wall"] member,
    mirroring the
    [Trace]/[Prof] split: drop ["wall"] and the stream is byte-stable. *)

type wall = {
  elapsed_s : float;  (** Wall seconds since the replay started. *)
  jobs_per_s : float;  (** Completed jobs per wall second so far. *)
  rss_mb : float option;  (** Process peak RSS ([Prof.peak_rss_kb]). *)
  wall_metrics : (string * float) list;
      (** Flattened ["wall."]-prefixed registry metrics. *)
}

type row = {
  run : string option;
  hb : Simulator.heartbeat;
  wait_p50 : float;  (** P² median wait; [nan] before any start. *)
  wait_p95 : float;
  utilization : float;  (** [nan] when no stream accumulator was given. *)
  metrics : (string * float) list;
      (** Deterministic registry section: non-["wall."] counters and
          gauges by name, histograms flattened to [.count]/[.sum]. *)
  wall : wall option;
}

val make :
  ?run:string ->
  ?stream:Metrics.Stream.t ->
  ?registry:bool ->
  ?wall:wall ->
  Simulator.heartbeat ->
  row
(** Assemble a row. [stream] supplies quantiles and utilization (defaults
    to [nan]s); [registry] (default [false]) snapshots
    [Resa_obs.Metrics] when collection is enabled, splitting
    ["wall."]-prefixed metrics into the [wall] section; [wall] attaches
    the wall-clock block. *)

val parse_line : string -> (row, string) result

val write : out_channel -> row -> unit
(** One JSONL line, with trailing newline. [nan] floats serialise as
    [null] (JSON has no NaN) and parse back as [nan]. *)
