(** Minimal dependency-free JSON values, parsing and printing.

    Backs the JSONL trace format, the Chrome trace-event exporter and the
    [resa explain] replay; also used by the test suite to assert that every
    export is well-formed. Numbers are represented as floats (integral
    values print without a fractional part); the parser accepts strict JSON
    with no extensions. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no trailing newline). Integral numbers
    below 1e15 in magnitude print as [Printf "%.0f"] would, other numbers
    as ["%.6g"] would, without going through [Printf]. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes); [s] itself when no
    byte needs escaping. *)

val of_string : string -> (t, string) result
(** Parse a complete document; [Error] carries a position message. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val to_int : t -> int option
(** [Num] with an integral value, as [int]. *)

val to_str : t -> string option
