open Resa_core

let poisson rng ~n ~mean_gap =
  if n < 0 then invalid_arg "Arrivals.poisson: negative n";
  let t = ref 0.0 in
  Array.init n (fun i ->
      if i = 0 then 0
      else begin
        t := !t +. Prng.exponential rng ~mean:mean_gap;
        int_of_float !t
      end)
