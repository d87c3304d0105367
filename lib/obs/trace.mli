(** Structured tracing: typed scheduler/simulator events and pluggable sinks.

    The deterministic half of the observability layer (DESIGN.md §6). Events
    carry only simulation data — instants, job ids, capacities, decisions —
    never wall-clock time, so a traced run produces the identical event
    stream at any executor pool size; wall-clock profiling lives in {!Prof}
    and is exported separately.

    Instrumentation sites are written

    {[ if Trace.enabled obs then Trace.emit obs (Trace.Job_start {...}) ]}

    so the disabled path ([obs = null], the default everywhere) costs one
    physical comparison and allocates nothing — untraced runs are
    byte-identical to, and as fast as, the uninstrumented code (tested). *)

type provenance =
  | Started_now  (** Started without overtaking any queued job. *)
  | Backfilled_ahead_of_head  (** Started while an earlier-queued job waits. *)
  | Blocked_by_reservation
      (** Would fit if reservations were ignored: a blocked window is the
          binding constraint. *)
  | Blocked_by_capacity  (** Running jobs (or the machine) are the binding constraint. *)
  | Held_by_policy
      (** Fits right now but the policy chose to wait (planning policies). *)

val provenance_to_string : provenance -> string
(** Stable kebab-case names, used in JSONL, CSV and [resa explain]. *)

val provenance_of_string : string -> provenance option

type event =
  | Job_submit of { time : int; job : int; p : int; q : int }
  | Job_start of { time : int; job : int; wait : int; provenance : provenance }
  | Job_finish of { time : int; job : int }  (** Actual completion (estimates released). *)
  | Decision of { time : int; policy : string; queued : int; started : int; wake : int option }
      (** One policy consultation. *)
  | Head_blocked of {
      time : int;
      policy : string;
      job : int;
      reason : provenance;
      lo : int;
      hi : int;
      need : int;
      have : int;
    }
      (** The first still-waiting queued job, with the window [\[lo,hi)] it
          needs, the capacity [need] it requires and the minimum [have] the
          window offers. *)
  | Planned of { time : int; policy : string; job : int; at : int }
      (** Policy-specific provenance: a planned/guaranteed start instant. *)
  | Resv_accept of { resv : int; start : int; p : int; q : int }
  | Resv_reject of { start : int; p : int; q : int; reason : string }
  | Sim_wake of { time : int; forced : bool }
      (** Simulator-scheduled extra decision instant ([forced] = deadlock
          avoidance wake-up past the last breakpoint). *)
  | Truncated of { dropped : int }
      (** A bounded sink overflowed: [dropped] older events are missing
          before this point. Emitted by {!flush_jsonl}, never by the
          simulator; [resa explain] warns
          when it sees one. *)

type t
(** A sink. Values are single-owner within one simulation run; the [file]
    sink serialises concurrent writers internally. *)

val null : t
(** Drops everything; [enabled null = false]. The default sink. *)

val buffer : ?cap:int -> unit -> t
(** Bounded ring buffer keeping the most recent [cap] events (default
    2{^20}); older events are dropped and counted. *)

val file : ?run:string -> out_channel -> t
(** JSONL sink: one event per line, written immediately (mutex-protected).
    [run] tags every line — used when several runs share one file. *)

val enabled : t -> bool
(** [false] exactly for {!null}. Check before building an event. *)

val emit : t -> event -> unit

val contents : t -> event list
(** Ring-buffer contents, oldest first; [[]] for [null] and [file] sinks. *)

val dropped : t -> int
(** Events evicted from a ring buffer so far. *)

val to_json : ?run:string -> event -> string
(** One JSONL line (no trailing newline). *)

val of_json : Jsonu.t -> (string option * event, string) result
(** Inverse of {!to_json}: the optional ["run"] tag and the event. *)

val parse_line : string -> (string option * event, string) result

val flush_jsonl : ?run:string -> out_channel -> t -> unit
(** A ring buffer's {!contents}, one event per line, followed by a
    {!Truncated} line when its {!dropped} count is positive — so
    truncation is never silently lost. *)

val start_provenances : event list -> (int * provenance) list
(** Per started job id, its start provenance, in event order — the
    provenance hook behind [Metrics.per_job]. *)
