(** The simulator's waiting queue: growable int arrays in FIFO
    (submission) order, read in place by position. Each entry is four ints:
    the job's id, the runtime estimate policies plan with, its width, and a
    non-negative [tag]; the simulator stores the job's live slot there, and
    policies name the jobs they start by it. The queue holds no {!Job.t}
    and no actual runtime: a policy cannot see how long a job really runs.

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

val tags : t -> int array
(** The backing tag array: [(tags q).(i)] is the tag of the entry at
    position [i] in [\[first, stop)], or [-1] when the cell is dead. Scans
    read it and the arrays below in place rather than paying a call per
    entry. Valid until the next {!append} or {!kill}; callers must not
    write it. *)

val ids : t -> int array
(** Job ids, on {!tags}' terms; a dead cell's value is meaningless. *)

val estimates : t -> int array
(** Runtime estimates (walltimes), on {!tags}' terms. *)

val widths : t -> int array
(** Processor counts, on {!tags}' terms. *)

val append : t -> id:int -> estimate:int -> width:int -> tag:int -> int
(** Enqueue at the tail and return the entry's position, O(1) amortised
    (backing arrays double). Raises [Invalid_argument] on a negative tag. *)

val kill : t -> int -> moved:(int -> int -> unit) -> unit
(** [kill q i ~moved] turns the live entry at [i] into a tombstone. If dead
    cells then outnumber live entries, the live ones slide to the front in
    order and [moved tag pos] is called for each entry whose position
    changes. Raises [Invalid_argument] if [i] holds no live entry. *)
