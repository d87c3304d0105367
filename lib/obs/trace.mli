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

type t
(** A sink: {!null} or a {!sink} callback. *)

val null : t
(** Drops everything; [enabled null = false]. The default sink. *)

val sink : (event -> unit) -> t
(** Hands every event to the callback as it is emitted, in emission
    order: nothing is buffered, bounded or dropped, so what the callback
    keeps — a JSONL line per event, a table, nothing — decides the
    memory a traced run holds. Nothing serialises the calls: runs on
    different domains need sinks of their own. *)

val enabled : t -> bool
(** [false] exactly for {!null}. Check before building an event. *)

val emit : t -> event -> unit

val to_json : ?run:string -> event -> string
(** One JSONL line (no trailing newline). *)

val output : out_channel -> ?run:string -> event -> unit
(** Write [to_json ?run ev] and a newline to the channel, through
    {!Jsonu.output}: the line is never made a string. *)

val parse_line : string -> (string option * event, string) result
(** Inverse of {!to_json}: the optional ["run"] tag and the event. *)
