(* Typed structured tracing for the simulator/scheduler stack.

   Two hard rules keep the rest of the repository honest:

   1. Determinism: every event carries only *simulation* data (instants,
      job ids, capacities, decisions). Wall-clock timing lives in [Prof],
      never here, so a deterministic event stream is identical across
      executor pool sizes.

   2. Disabled cost: the [Null] sink answers [enabled _ = false] and every
      instrumentation site is written

        if Trace.enabled obs then Trace.emit obs (...)

      so the untraced path pays one immediate comparison — no event
      allocation, no branches inside hot operations. *)

type provenance =
  | Started_now
  | Backfilled_ahead_of_head
  | Blocked_by_reservation
  | Blocked_by_capacity
  | Held_by_policy

let provenance_to_string = function
  | Started_now -> "started-now"
  | Backfilled_ahead_of_head -> "backfilled-ahead-of-head"
  | Blocked_by_reservation -> "blocked-by-reservation"
  | Blocked_by_capacity -> "blocked-by-capacity"
  | Held_by_policy -> "held-by-policy"

let provenance_of_string = function
  | "started-now" -> Some Started_now
  | "backfilled-ahead-of-head" -> Some Backfilled_ahead_of_head
  | "blocked-by-reservation" -> Some Blocked_by_reservation
  | "blocked-by-capacity" -> Some Blocked_by_capacity
  | "held-by-policy" -> Some Held_by_policy
  | _ -> None

type event =
  | Job_submit of { time : int; job : int; p : int; q : int }
  | Job_start of { time : int; job : int; wait : int; provenance : provenance }
  | Job_finish of { time : int; job : int }
  | Decision of { time : int; policy : string; queued : int; started : int; wake : int option }
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
  | Planned of { time : int; policy : string; job : int; at : int }
  | Resv_accept of { resv : int; start : int; p : int; q : int }
  | Resv_reject of { start : int; p : int; q : int; reason : string }
  | Sim_wake of { time : int; forced : bool }

(* --- sinks -------------------------------------------------------------- *)

(* The callback decides what an event becomes — a JSONL line, a table
   entry, a list cell in a test — as it happens, so no sink holds events
   back, bounds them or drops them. *)
type t = Null | Sink of (event -> unit)

let null = Null
let sink f = Sink f
let enabled t = t != Null [@@inline]
let emit t ev = match t with Null -> () | Sink f -> f ev

(* --- JSONL -------------------------------------------------------------- *)

let to_value ?run ev =
  let open Jsonu in
  let i n = Num (float_of_int n) in
  let fields =
    match ev with
    | Job_submit { time; job; p; q } ->
      [ ("ev", Str "job_submit"); ("t", i time); ("job", i job); ("p", i p); ("q", i q) ]
    | Job_start { time; job; wait; provenance } ->
      [
        ("ev", Str "job_start"); ("t", i time); ("job", i job); ("wait", i wait);
        ("provenance", Str (provenance_to_string provenance));
      ]
    | Job_finish { time; job } -> [ ("ev", Str "job_finish"); ("t", i time); ("job", i job) ]
    | Decision { time; policy; queued; started; wake } ->
      [
        ("ev", Str "decision"); ("t", i time); ("policy", Str policy); ("queued", i queued);
        ("started", i started);
        ("wake", match wake with None -> Null | Some w -> i w);
      ]
    | Head_blocked { time; policy; job; reason; lo; hi; need; have } ->
      [
        ("ev", Str "head_blocked"); ("t", i time); ("policy", Str policy); ("job", i job);
        ("reason", Str (provenance_to_string reason)); ("lo", i lo); ("hi", i hi);
        ("need", i need); ("have", i have);
      ]
    | Planned { time; policy; job; at } ->
      [ ("ev", Str "planned"); ("t", i time); ("policy", Str policy); ("job", i job); ("at", i at) ]
    | Resv_accept { resv; start; p; q } ->
      [ ("ev", Str "resv_accept"); ("resv", i resv); ("start", i start); ("p", i p); ("q", i q) ]
    | Resv_reject { start; p; q; reason } ->
      [
        ("ev", Str "resv_reject"); ("start", i start); ("p", i p); ("q", i q);
        ("reason", Str reason);
      ]
    | Sim_wake { time; forced } ->
      [ ("ev", Str "sim_wake"); ("t", i time); ("forced", Bool forced) ]
  in
  Obj (match run with None -> fields | Some r -> ("run", Str r) :: fields)

let to_json ?run ev = Jsonu.to_string (to_value ?run ev)

let output oc ?run ev =
  Jsonu.output oc (to_value ?run ev);
  output_char oc '\n'

let of_json j =
  let ( let* ) o f = Option.bind o f in
  let int k = Option.bind (Jsonu.member k j) Jsonu.to_int in
  let str k = Option.bind (Jsonu.member k j) Jsonu.to_str in
  let run = str "run" in
  let ev =
    let* kind = str "ev" in
    match kind with
    | "job_submit" ->
      let* time = int "t" in
      let* job = int "job" in
      let* p = int "p" in
      let* q = int "q" in
      Some (Job_submit { time; job; p; q })
    | "job_start" ->
      let* time = int "t" in
      let* job = int "job" in
      let* wait = int "wait" in
      let* provenance = Option.bind (str "provenance") provenance_of_string in
      Some (Job_start { time; job; wait; provenance })
    | "job_finish" ->
      let* time = int "t" in
      let* job = int "job" in
      Some (Job_finish { time; job })
    | "decision" ->
      let* time = int "t" in
      let* policy = str "policy" in
      let* queued = int "queued" in
      let* started = int "started" in
      Some (Decision { time; policy; queued; started; wake = int "wake" })
    | "head_blocked" ->
      let* time = int "t" in
      let* policy = str "policy" in
      let* job = int "job" in
      let* reason = Option.bind (str "reason") provenance_of_string in
      let* lo = int "lo" in
      let* hi = int "hi" in
      let* need = int "need" in
      let* have = int "have" in
      Some (Head_blocked { time; policy; job; reason; lo; hi; need; have })
    | "planned" ->
      let* time = int "t" in
      let* policy = str "policy" in
      let* job = int "job" in
      let* at = int "at" in
      Some (Planned { time; policy; job; at })
    | "resv_accept" ->
      let* resv = int "resv" in
      let* start = int "start" in
      let* p = int "p" in
      let* q = int "q" in
      Some (Resv_accept { resv; start; p; q })
    | "resv_reject" ->
      let* start = int "start" in
      let* p = int "p" in
      let* q = int "q" in
      let* reason = str "reason" in
      Some (Resv_reject { start; p; q; reason })
    | "sim_wake" ->
      let* time = int "t" in
      let* forced = (match Jsonu.member "forced" j with Some (Jsonu.Bool b) -> Some b | _ -> None) in
      Some (Sim_wake { time; forced })
    | _ -> None
  in
  match ev with
  | Some ev -> Ok (run, ev)
  | None -> Error "not a trace event"

let parse_line line =
  match Jsonu.of_string line with
  | Error m -> Error m
  | Ok j -> of_json j
