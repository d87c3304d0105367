(** Small statistics toolkit: the list mean, the streaming accumulators
    behind the replay metrics, and terminal sparklines. *)

val mean : float list -> float
(** 0 on the empty list. *)

(** {2 Streaming accumulators}

    Constant-memory accumulators for the trace-replay path, where the
    sample list never materialises. *)

(** Exactly-rounded float summation (Shewchuk expansions, the algorithm
    behind CPython's [math.fsum]). The returned total is the true real sum
    of the terms rounded once to the nearest double — in particular it is
    {e independent of insertion order}, which is what lets the streaming
    metrics (fed in completion order) reproduce the batch metrics (fed in
    submission order) bit for bit. O(1) amortised per term on well-scaled
    data; worst case O(partials). *)
module Fsum : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  (** Raises [Invalid_argument] on nan/infinite terms. *)

  val add_ratio : t -> int -> int -> unit
  (** [add_ratio t num den] is [add t (float num /. float den)], bit for
      bit, with the quotient computed inside: no boxed float crosses the
      call, so a caller in another module adds without allocating. *)

  val total : t -> float
  (** The exact sum, correctly rounded. 0 when no terms were added. *)
end

(** P² (Jain–Chlamtac 1985) streaming quantile estimator: five markers,
    O(1) memory and per-observation time. Exact while [count <= 5] (the
    observations are buffered); afterwards a heuristic whose error on
    smooth distributions is typically well under a percent of the value —
    the tests pin its exact prefix and its range. Not mergeable. *)
module P2 : sig
  type t

  val create : q:float -> t
  (** Track the [q]-quantile, [q ∈ (0, 1)] exclusive; raises otherwise. *)

  val add : t -> float -> unit

  val add_int : t -> int -> unit
  (** [add_int t x] is [add t (float x)], without boxing the sample. *)

  val count : t -> int

  val value : t -> float
  (** Current estimate; nan before any observation. *)
end

val sparkline : ?width:int -> float list -> string
(** Unicode block-character sparkline (▁ to █), scaled to the samples'
    own min/max; non-finite samples are skipped. [width] (default 0 =
    all) keeps the trailing samples only — what a scrolling dashboard
    wants. "" on the empty list; a flat series renders at the lowest
    level. *)
