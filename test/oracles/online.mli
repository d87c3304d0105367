(** Oracle of {!Resa_sim.Policy.batch}: the paper's §2.1 batch
    construction (Shmoys, Wein & Williamson, 1995) as a loop of its own,
    outside the engine.

    Jobs arrive over time; any offline algorithm runs online by batches:
    all jobs that arrived during the current batch are scheduled together,
    as a new batch, once the current batch completes. The makespan
    guarantee doubles: if the offline algorithm is ρ-approximate, the batch
    version is 2ρ-competitive. Each batch is scheduled by the offline
    algorithm on the availability left after the previous batch's
    completion. *)

open Resa_core

type report = {
  schedule : Schedule.t;
  batches : int list list;  (** Job indices per batch, in batch order. *)
  batch_starts : int list;  (** Time at which each batch was launched. *)
}

val run_reference :
  ?offline:(Instance.t -> Schedule.t) -> Instance.t -> release:int array -> report
(** [run_reference inst ~release] schedules every job of [inst] at or after
    its release date [release.(i)] (non-negative, one per job). Default
    offline algorithm: [Lsrc.run] with FIFO priority. The offline algorithm
    is invoked on sub-instances whose job sets are batches, in index order,
    and whose reservations include a full-machine blocker covering
    [\[0, batch start)]. The result is feasible for [inst] and no job starts
    before its release. Rescans all n jobs per batch: O(n²). *)
