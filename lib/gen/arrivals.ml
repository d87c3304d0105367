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

let uniform rng ~n ~horizon =
  if n < 0 || horizon < 1 then invalid_arg "Arrivals.uniform: bad parameters";
  let a = Array.init n (fun _ -> Prng.int rng ~bound:horizon) in
  Array.sort Int.compare a;
  a
