(** Oracle of {!Resa_algos.Lsrc.run_order}. *)

open Resa_core

val run_order_reference : Instance.t -> int array -> Schedule.t
(** The original persistent-[Profile] implementation, whose [reserve]
    rebuilds the whole breakpoint array per job (O(n·k) overall). Kept as
    the oracle of the randomized differential suite and as the baseline the
    perf bench measures the timeline speedup against; always produces the
    same schedule as [Resa_algos.Lsrc.run_order]. *)
