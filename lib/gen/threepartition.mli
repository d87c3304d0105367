(** 3-PARTITION instances (Garey & Johnson), the source problem of the
    paper's Theorem 1 reduction.

    An instance is [3k] positive integers summing to [k·b]; the question is
    whether they can be split into [k] triples each summing to [b]. *)

open Resa_core

type t = private { xs : int array; b : int }

val make : xs:int array -> b:int -> (t, string) result
(** Checks [|xs|] is a positive multiple of 3, all [xs] positive, and
    [Σ xs = (|xs|/3)·b]. *)

val k : t -> int
(** Number of triples. *)

val solve : t -> int array option
(** Exact search: [Some groups] maps each item to a triple index such that
    every triple has exactly 3 items summing to [b]; [None] for NO
    instances. Exponential in the worst case; intended for the small
    instances of the FIG1 experiment (k ≤ ~8). *)

val is_yes : t -> bool

val check_assignment : t -> int array -> bool
(** Validates a claimed solution. *)

val random_yes : Prng.t -> k:int -> b:int -> t
(** A YES instance built from [k] random triples summing to [b]
    ([b >= 3]). *)
