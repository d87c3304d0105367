(** Profile-based oracle twins of {!Resa_sim.Policy.all}.

    Same names, same decisions, but each decision snapshots the forward
    profile ([Timeline.to_profile ~from:time]) and re-derives plans with
    persistent [Profile.reserve]/[earliest_fit] chains — exactly the
    pre-timeline-native engine, kept for the differential suite and the
    before/after benchmark. They convert the queue once with
    [Jobq_view.to_list], and answer with [Jobq_view.tags_of]. *)

val fcfs_reference : Resa_sim.Policy.t
val conservative_reference : Resa_sim.Policy.t
val easy_reference : Resa_sim.Policy.t
val aggressive_reference : Resa_sim.Policy.t

val all_reference : Resa_sim.Policy.t list
(** The four oracles, in the order of {!Resa_sim.Policy.all}. *)
