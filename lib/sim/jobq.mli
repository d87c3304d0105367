(** The simulator's waiting queue: a growable array of jobs in FIFO
    (submission) order, read in place by position. Each entry carries a
    non-negative [tag]; the simulator stores the job's live slot there.

    A started job is not removed but {!kill}ed: its cell becomes a
    tombstone that readers skip, so a decision that starts [k] jobs costs
    [O(k)]. The live entries slide to the front once dead cells outnumber
    them; a slide moves fewer entries than were killed since the last one,
    so moves never exceed appends.

    Aliasing contract: a position names the same entry from its {!append}
    until the entry is killed or a slide moves it, and the {!kill} that
    slides reports every entry it moves. {!append} never moves an entry.
    Live positions increase in submission order. Single-owner, not
    thread-safe (each simulated run owns its queue). *)

open Resa_core

type t

val create : unit -> t

val length : t -> int
(** Number of live entries, O(1). *)

val first : t -> int
(** A position with no live entry below it: the head's position when the
    queue is non-empty. *)

val stop : t -> int
(** One past the last position in use; every live position is in
    [\[first, stop)]. *)

val jobs : t -> Job.t array
(** The backing job array: [(jobs q).(i)] is the job at live position [i].
    Scans read it in place rather than paying a call per entry. Valid
    until the next {!append} or {!kill}; callers must not write it. *)

val tags : t -> int array
(** The backing tag array, on {!jobs}' terms: [(tags q).(i)] is the tag of
    the entry at position [i] in [\[first, stop)], or [-1] when the cell
    is dead. *)

val append : t -> Job.t -> tag:int -> int
(** Enqueue at the tail and return the entry's position, O(1) amortised
    (backing arrays double). Raises [Invalid_argument] on a negative tag. *)

val kill : t -> int -> moved:(int -> int -> unit) -> unit
(** [kill q i ~moved] turns the live entry at [i] into a tombstone (its
    cell is cleared, so the queue never retains a started job). If dead
    cells then outnumber live entries, the live ones slide to the front in
    order and [moved tag pos] is called for each entry whose position
    changes. Raises [Invalid_argument] if [i] holds no live entry. *)
