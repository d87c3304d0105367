(** Aligned ASCII tables and CSV output for the experiment harness. *)

type t

val create : headers:string list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] on a row of the wrong width. *)

val render : t -> string
(** Column-aligned text, header underlined. *)

val to_csv : t -> string
