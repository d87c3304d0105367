(** Oracle of {!Resa_exact.Bnb.solve}. *)

val solve_reference : ?node_limit:int -> Resa_core.Instance.t -> Resa_exact.Bnb.result
(** The pre-speculation persistent-profile solver, kept as the oracle twin
    for the randomized differential suite ([bnb-diff]) and benchmarks. It
    always agrees with [Resa_exact.Bnb.solve] on [makespan] and [optimal];
    schedules may differ (each is feasible and achieves the makespan),
    because the speculative solver uses a strictly stronger chain-twin
    symmetry rule. Default node limit: 2_000_000. *)
