(** An int-to-int hash table keyed by job ids: the engine's live ids, so a
    duplicate live id is caught at admission. Open addressing with linear
    probing over two flat int arrays (keys and values) and backward-shift
    deletion: a binding allocates no block, and ids are hashed and compared
    as ints, with no call into the polymorphic hash or compare and no
    functor indirection per operation. Each id is bound at most once. *)

type t

val create : int -> t
(** An empty table sized for about that many bindings. *)

val add : t -> int -> int -> bool
(** [add t id v] binds [id] to [v] and returns [true] if [id] is not bound;
    otherwise it changes nothing and returns [false]. *)

val find : t -> int -> int
(** Raises [Not_found] if the id is not bound. *)

val remove : t -> int -> unit
(** No-op if the id is not bound. *)
