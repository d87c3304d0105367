(** A set of int ids: the engine's live job ids, so a duplicate live id is
    caught at admission. Open addressing with linear probing over one flat
    int array and backward-shift deletion: an id allocates no block, and
    ids are hashed and compared as ints, with no call into the polymorphic
    hash or compare and no functor indirection per operation. *)

type t

val create : int -> t
(** An empty set sized for about that many ids. *)

val add : t -> int -> bool
(** [add t id] adds [id] and returns [true] if [id] is absent; otherwise it
    changes nothing and returns [false]. *)

val remove : t -> int -> unit
(** No-op if the id is absent. *)
