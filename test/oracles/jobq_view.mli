(** Test-side views of the engine's waiting queue. *)

val to_list : Resa_sim.Jobq.t -> Resa_core.Job.t list
(** The live entries in queue order, as fresh jobs carrying the queue's
    estimate as their runtime, O(stop - first): how the oracle policies and
    test policies read the queue. *)

val tags_of : Resa_sim.Jobq.t -> Resa_core.Job.t list -> int list
(** The tags of live entries, by job id, in the order given: how a policy
    that picked jobs from {!to_list} answers. Raises [Not_found] for a job
    not in the queue. *)

val start :
  Resa_sim.Jobq.t -> Resa_core.Timeline.t -> time:int -> Resa_core.Job.t list -> int list
(** [start q free ~time jobs] reserves each job's window at [time] on the
    engine's timeline with [Timeline.reserve], in order, and returns their
    tags as {!tags_of} does: how a test policy starts the jobs it picked.
    A window that does not fit is left unreserved, so the engine refuses
    that start. *)
