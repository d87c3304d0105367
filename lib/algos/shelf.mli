(** Shelf (level) packing algorithms — the paper's "further direction"
    (§5: "heuristics like those based on packing (partition on shelves)").

    Jobs are grouped into shelves: all jobs of a shelf start together, and
    the shelf's height is the longest job it contains. Shelves are stacked in
    time. We implement the two classical level heuristics transposed to
    rigid jobs (height = duration, width = processors):

    - NFDH (next-fit decreasing height): a job opens a new shelf as soon as
      it does not fit in the current one;
    - FFDH (first-fit decreasing height): a job goes to the first shelf with
      enough remaining width.

    Shelf schedules are only defined without reservations; with reservations
    present, the shelves are stacked into the availability — each shelf
    starts at the earliest time, from the end of the previous shelf, that
    its full [m]-wide, height-tall window fits on a {!Timeline} of it (a
    simple reservation-aware extension used as an extra baseline). *)

open Resa_core

type variant = Nfdh | Ffdh

val run : variant -> Instance.t -> Schedule.t
(** Feasible for any instance (reservation-aware stacking as described
    above). *)

val shelves : variant -> Instance.t -> int list list
(** The shelf partition (lists of job indices), before time placement —
    exposed for tests: widths must respect [m], heights are non-increasing
    in LPT order within the construction. *)
