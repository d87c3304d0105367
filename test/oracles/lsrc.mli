(** Oracle of offline LSRC: [Resa_sim.Simulator.run_order] of
    [Policy.aggressive]. *)

open Resa_core

val run_order_reference : Instance.t -> int array -> Schedule.t
(** The original persistent-[Profile] implementation, whose [reserve]
    rebuilds the whole breakpoint array per job (O(n·k) overall). Kept as
    the oracle of the randomized differential suite and as the baseline the
    perf bench measures the timeline speedup against; always produces the
    same schedule as [Simulator.run_order ~policy:Policy.aggressive]. *)
