(** Test-side views of the engine's waiting queue. *)

val to_list : Resa_sim.Jobq.t -> Resa_core.Job.t list
(** The live entries in queue order, as fresh jobs carrying the queue's
    estimate as their runtime, O(stop - first): how the oracle policies and
    test policies read the queue. *)

val tags_of : Resa_sim.Jobq.t -> Resa_core.Job.t list -> int list
(** The tags of live entries, by job id, in the order given: how a policy
    that picked jobs from {!to_list} answers. Raises [Not_found] for a job
    not in the queue. *)
