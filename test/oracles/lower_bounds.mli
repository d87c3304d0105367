(** Oracle of {!Resa_exact.Lower_bounds}: the original persistent-[Profile]
    bounds, the same values on every instance. Named as the production
    module's, so that [Bnb.solve_reference] prunes with them. *)

open Resa_core

val min_time_with_area : Profile.t -> from:int -> area:int -> int
(** Smallest [C >= from] with [∫_from^C profile >= area]; raises
    [Invalid_argument "Lower_bounds.min_time_with_area: non-positive tail"]
    when [area > 0] and the tail value is not positive. *)

val work_bound : Instance.t -> int
val fit_bound : Instance.t -> int
val serial_bound : Instance.t -> int
val best : Instance.t -> int
