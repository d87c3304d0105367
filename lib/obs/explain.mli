(** Decision-provenance replay behind [resa explain].

    Consumes a parsed JSONL trace (see {!Trace.parse_line}) and renders,
    per run and per job, the reconstructed story: submission, blocked
    episodes aggregated by binding constraint, policy plans, the start
    with its provenance, and the completion. *)

val render : out_channel -> (string option * Trace.event) Seq.t -> unit
(** Consumes the events once, in order, then writes the report to the
    channel story by story. It keeps one story per job, never the events
    or the report, so a trace can be streamed from its file. Runs appear
    in first-appearance order; jobs within a run in id order. Events with
    no run tag group under the name ["run"]. *)
