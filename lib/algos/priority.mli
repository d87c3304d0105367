(** Priority rules for list scheduling.

    A priority rule turns an instance into a permutation of its job indices;
    list algorithms ({!Lsrc}, {!Fcfs}, {!Backfill}) then consider jobs in
    that order. FIFO is the submission order; LPT ("sorting the jobs by
    decreasing durations") is the variant the paper's conclusion singles out
    as a candidate for improving the 2/α upper bound. *)

open Resa_core

type t =
  | Fifo  (** Submission (index) order. *)
  | Lpt  (** Longest processing time first. *)
  | Spt  (** Shortest processing time first. *)
  | Widest_first  (** Decreasing processor requirement. *)
  | Narrowest_first  (** Increasing processor requirement. *)
  | Largest_area_first  (** Decreasing [p·q]. *)
  | Random of int  (** Uniform shuffle from the given seed. *)
  | Explicit of int array  (** A fixed permutation of [0..n-1]. *)

val name : t -> string

val order : t -> Instance.t -> int array
(** The job indices in scheduling order. Ties broken by index, so every rule
    is deterministic. Raises [Invalid_argument] if an [Explicit] array is not
    a permutation of [0..n_jobs-1]. *)

val check_order : string -> Instance.t -> int array -> unit
(** [check_order fn inst order] raises [Invalid_argument
    (fn ^ ": order is not a permutation")] unless [order] is a permutation
    of [0..n_jobs-1]: the guard of every offline [*_order] entry point. *)

val standard : t list
(** The deterministic rules benchmarked throughout: FIFO, LPT, SPT,
    widest-first, narrowest-first, largest-area-first. *)
