(** Plain-text instance files.

    A tiny line-oriented format used by the CLI and the examples:

    {v
    # comment
    m 8
    job 5 2        # duration processors
    res 4 3 6      # start duration processors
    v}

    Jobs and reservations are numbered in order of appearance. *)

val to_string : Instance.t -> string

val of_string : string -> (Instance.t, string) result
(** Errors carry 1-based line numbers. *)

val read_file : string -> (Instance.t, string) result

