open Resa_core

type t = { xs : int array; b : int }

let make ~xs ~b =
  let n = Array.length xs in
  if n = 0 || n mod 3 <> 0 then Error "Threepartition.make: |xs| must be a positive multiple of 3"
  else if Array.exists (fun x -> x < 1) xs then Error "Threepartition.make: xs must be positive"
  else if b < 3 then Error "Threepartition.make: b must be >= 3"
  else
    let k = n / 3 in
    if Array.fold_left ( + ) 0 xs <> k * b then Error "Threepartition.make: sum xs must equal k*b"
    else Ok { xs = Array.copy xs; b }

let make_exn ~xs ~b =
  match make ~xs ~b with Ok t -> t | Error msg -> invalid_arg msg

let k t = Array.length t.xs / 3

let check_assignment t groups =
  let kk = k t in
  Array.length groups = Array.length t.xs
  && Array.for_all (fun g -> g >= 0 && g < kk) groups
  &&
  let sums = Array.make kk 0 and counts = Array.make kk 0 in
  Array.iteri
    (fun i g ->
      sums.(g) <- sums.(g) + t.xs.(i);
      counts.(g) <- counts.(g) + 1)
    groups;
  Array.for_all (fun s -> s = t.b) sums && Array.for_all (fun c -> c = 3) counts

let solve t =
  let n = Array.length t.xs in
  let kk = k t in
  (* Items sorted by decreasing value; each is assigned to a triple with
     enough remaining budget and fewer than 3 members. Forcing an item into
     the first currently-empty triple breaks group symmetry. *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a bb -> Int.compare t.xs.(bb) t.xs.(a)) order;
  let budget = Array.make kk t.b and count = Array.make kk 0 in
  let assign = Array.make n (-1) in
  let rec dfs pos =
    if pos = n then true
    else begin
      let i = order.(pos) in
      let rec try_group g seen_empty =
        if g >= kk then false
        else begin
          let empty = count.(g) = 0 in
          if empty && seen_empty then false (* only the first empty triple *)
          else if budget.(g) >= t.xs.(i) && count.(g) < 3
                  (* A triple with 2 members must be completed exactly later;
                     prune when the residue is no longer achievable. *)
                  && (count.(g) < 2 || budget.(g) = t.xs.(i) || budget.(g) - t.xs.(i) >= 1)
          then begin
            budget.(g) <- budget.(g) - t.xs.(i);
            count.(g) <- count.(g) + 1;
            assign.(i) <- g;
            if dfs (pos + 1) then true
            else begin
              budget.(g) <- budget.(g) + t.xs.(i);
              count.(g) <- count.(g) - 1;
              assign.(i) <- -1;
              try_group (g + 1) (seen_empty || empty)
            end
          end
          else try_group (g + 1) (seen_empty || empty)
        end
      in
      try_group 0 false
    end
  in
  if dfs 0 then Some assign else None

let is_yes t = solve t <> None

let random_yes rng ~k:kk ~b =
  if kk < 1 then invalid_arg "Threepartition.random_yes: k must be >= 1";
  if b < 3 then invalid_arg "Threepartition.random_yes: b must be >= 3";
  let xs = Array.make (3 * kk) 0 in
  for g = 0 to kk - 1 do
    let x1 = Prng.int_incl rng ~lo:1 ~hi:(b - 2) in
    let x2 = Prng.int_incl rng ~lo:1 ~hi:(b - x1 - 1) in
    let x3 = b - x1 - x2 in
    xs.((3 * g) + 0) <- x1;
    xs.((3 * g) + 1) <- x2;
    xs.((3 * g) + 2) <- x3
  done;
  Prng.shuffle rng xs;
  make_exn ~xs ~b
