(** Hash tables keyed by job ids: the engine's live ids to slots, and the
    conservative policy's queued jobs to their promises. Ids are ints, so
    they are hashed and compared as ints, with no call into the
    polymorphic hash or compare and no functor indirection per operation.
    Each id is bound at most once. *)

type 'a t

val create : int -> 'a t
(** An empty table sized for about that many bindings. *)

val add : 'a t -> int -> 'a -> bool
(** [add t id v] binds [id] to [v] and returns [true] if [id] is not bound;
    otherwise it changes nothing and returns [false]. *)

val find : 'a t -> int -> 'a
(** Raises [Not_found] if the id is not bound. *)

val remove : 'a t -> int -> unit
(** No-op if the id is not bound. *)
