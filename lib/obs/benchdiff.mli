(** Benchmark regression gate.

    Compares two [BENCHMARK_results.json] files (written by
    [benchmark/run.py --json DIR]), a parent's and a change's, metric by
    metric. Each metric's direction ([better]) and relative [bound] are
    the ones declared in [BENCHMARK.json]. A metric is judged on its
    headline [value]:

    - [Unresolved] when the parent's q1–q3 spread, relative to its median,
      is wider than the bound: the runs cannot tell a change that size;
    - [Worse] when the change is worse than the parent by more than the
      bound, [Better] when better by more than it, [Within] otherwise;
    - [Unbounded] when [BENCHMARK.json] declares no bound for it (the
      per-layer metrics): reported, never judged.

    A higher [failed]/[attempted] share in the change is a regression
    too. [resa benchdiff] is the CLI around this module: exit 1 on any
    regression, 2 when the files cannot be compared. *)

type better = Higher | Lower

type declared = (string * (better * float option)) list
(** Metric name → direction and bound, from [BENCHMARK.json]'s
    [end_to_end] and [per_layer] lists. *)

val declared_of_string : string -> (declared, string) result

type metric = { value : float; median : float; q1 : float; q3 : float; unit : string }

type results = {
  workload : string;
  seed : int;
  trace : int;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * metric) list;  (** Sorted by name. *)
}

val results_of_string : string -> (results, string) result

type verdict = Worse | Better | Within | Unresolved | Unbounded

type comparison = {
  name : string;
  parent : metric;
  change : metric;
  delta : float;  (** [change.value / parent.value - 1]. *)
  bound : float option;
  spread : float;  (** The parent's [(q3 - q1) / median]. *)
  verdict : verdict;
}

type report = {
  run : string;  (** The workload, seed and trace both inputs share. *)
  comparisons : comparison list;  (** By metric name. *)
  only_parent : string list;
  only_change : string list;
  parent_failed : float;  (** [failed / attempted] of each input. *)
  change_failed : float;
  regressions : int;  (** [Worse] metrics, plus one for a higher failed share. *)
}

val compare : declared -> parent:results -> change:results -> (report, string) result
(** [Error] when the two cannot be compared: either input lists errors,
    the [workload], [seed] or [trace] differ, or no metric is in both. *)

val render : report -> string
(** Human-readable table, one line per metric, and a closing count. *)
