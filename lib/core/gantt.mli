(** ASCII Gantt charts.

    The scheduling model does not assign jobs to specific processors
    (allocation is non-contiguous, paper §2.1); for display we compute a
    concrete processor assignment greedily — always possible for a feasible
    schedule — and draw one row per processor, one column per time unit
    (sampled when the makespan exceeds [width]).

    Legend: ['#'] reservation, ['.'] idle, letters/digits cycle over jobs. *)

val assign_processors : Instance.t -> Schedule.t -> int array array
(** [assign_processors inst s] returns, for each job index, the sorted list
    of processors (in [0..m-1]) it occupies. Raises [Invalid_argument] if the
    schedule is infeasible. Reservations are packed from the highest
    processor numbers down, mirroring the paper's figures. *)

val render : ?width:int -> Instance.t -> Schedule.t -> string
(** Multi-line chart, newline-terminated. [width] (default 72) bounds the
    number of time columns. *)

val render_profile : ?width:int -> ?height:int -> Profile.t -> hi:int -> string
(** Bar rendering of a profile over [\[0, hi)] — used to display availability
    functions. *)
