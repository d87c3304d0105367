(** Oracle of {!Resa_algos.Shelf.run}. *)

open Resa_core

val run_reference : Resa_algos.Shelf.variant -> Instance.t -> Schedule.t
(** The original persistent-[Profile] placement of the shelves; the same
    starts as [Shelf.run] on every instance. *)
