(** Bridge from a finished simulation's records to the Chrome trace-event
    exporter: a Gantt-style view loadable in Perfetto / chrome://tracing.

    One track per processor (the deterministic packing from
    {!Resa_core.Gantt.assign_processors}), a slice per (job, processor)
    pair, plus a separate ["reservations"] track — processor identity for a
    reservation is a rendering choice, not a scheduling fact. Simulation
    time maps to trace microseconds, 1 unit = 1 µs. *)

val chrome_slices :
  ?process:string ->
  m:int ->
  reservations:Resa_core.Reservation.t list ->
  Simulator.record list ->
  Resa_obs.Chrome.slice list
(** The slices of a run on [m] processors with [reservations], from its
    records: the processor packing, and so the tracks, follow the records'
    order (the CLI passes them in submission order). [process] names the
    Chrome process grouping all tracks (default ["simulation"]); pass the
    policy name when exporting several runs into one file. Wide jobs appear once per assigned processor, so a [q]-wide
    job yields [q] identical-looking slices at the same instant. *)
