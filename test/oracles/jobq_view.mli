(** Test-side views of the engine's waiting queue. *)

val to_list : Resa_sim.Jobq.t -> Resa_core.Job.t list
(** The live entries in queue order, as a fresh list, O(stop - first): how
    the oracle policies and test policies read the queue. *)
