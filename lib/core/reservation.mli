(** Advance reservations.

    A reservation blocks [q] processors during the half-open interval
    [\[start, start + p)]. Reservations are fixed input data: the scheduler
    must work around them (paper §3.1). *)

type t = private { id : int; start : int; p : int; q : int }

val make : id:int -> start:int -> p:int -> q:int -> t
(** Raises [Invalid_argument] if [start < 0], [p < 1] or [q < 1]. *)

val id : t -> int
val start : t -> int
val p : t -> int
val q : t -> int

val stop : t -> int
(** [stop r = start r + p r], the first instant after the reservation. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Order by [(start, stop, q, id)] — chronological sweep order. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
