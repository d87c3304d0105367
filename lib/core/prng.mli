(** Deterministic pseudo-random number generator (SplitMix64).

    All randomised code in this repository draws from this generator so that
    every experiment, test and benchmark is reproducible from a single seed,
    independently of the OCaml standard library's [Random] state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    independent of the subsequent outputs of [g]; used to hand disjoint
    randomness to sub-components. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int g ~bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_incl : t -> lo:int -> hi:int -> int
(** [int_incl g ~lo ~hi] is uniform in [\[lo, hi\]]. Requires [lo <= hi]. *)

val bits53 : t -> int
(** Next output's top 53 bits, uniform in [\[0, 2{^53})]: the int primitive
    behind {!float} and {!exponential}. *)

val float : t -> bound:float -> float
(** [float g ~bound] is uniform in [\[0, bound)]: exactly
    [bound *. (float_of_int (bits53 g) /. 0x1p53)], so a caller that must
    not box the result (a float returned across a module boundary is boxed)
    can compute it in place, bit-identically. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (> 0): exactly
    [-.mean *. log (1.0 -. (float_of_int (bits53 g) /. 0x1p53))]. *)

val log_uniform_int : t -> lo:int -> hi:int -> int
(** Integer whose logarithm is uniform over [\[log lo, log hi\]]; the classic
    heavy-tailed runtime model of workload archives. Requires
    [1 <= lo <= hi]. *)
