(** Rigid parallel jobs.

    A job requires a fixed number [q] of processors for a fixed duration [p]
    (the paper's "parallel tasks model": rigid, non-preemptive,
    non-contiguous). Time is discrete; see DESIGN.md §1. *)

type t = private { id : int; p : int; q : int }
(** [p] is the processing time (>= 1), [q] the number of required
    processors (>= 1). [id] identifies the job inside its instance. *)

val make : id:int -> p:int -> q:int -> t
(** Raises [Invalid_argument] if [p < 1] or [q < 1]. *)

val id : t -> int
val p : t -> int
val q : t -> int

val area : t -> int
(** [area j = p j * q j], the work of the job. *)

val pp : Format.formatter -> t -> unit
