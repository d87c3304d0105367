(* Bench-trajectory regression gate: compare two BENCH_*.json files
   row-by-row and flag relative slowdowns.

   Rows are the uniform records Bench_json emits ({experiment, n, algo,
   wall_s, domains, seed, git_rev} plus the ts/host stamp). Two rows match
   when their (experiment, n, algo, domains, seed) keys coincide; within a
   file, duplicate keys collapse to the minimum wall time (best-of, the
   usual bench convention — reruns only ever add noise upward). The gate
   compares new/old wall ratios against a threshold:

   - algo names under the "rss_mb:" and "phase:" prefixes are compared
     but reported as informational, never failing the gate: RSS is a
     process-wide high-water mark (monotone across rows of one harness
     run, so only regressions of the *first* row of a regime would be
     meaningful), and phase splits are coarse wall-clock shape.
     "allocs_ev:" rows carry minor words per event — deterministic, so
     they gate exactly like wall rows and catch allocation regressions the
     timer would hide in noise (they are far above the [min_wall] floor by
     construction).
   - rows whose wall time is below [min_wall] in both files sit under the
     timer noise floor and are skipped from gating.
   - a non-finite wall (RSS off-Linux serialises as nan -> null) skips the
     row. *)

type row = {
  experiment : string;
  n : int;
  algo : string;
  wall_s : float;
  domains : int;
  seed : int;
  git_rev : string;
  ts : string option;
  host : string option;
}

let key r = Printf.sprintf "%s/n=%d/%s/d=%d/seed=%d" r.experiment r.n r.algo r.domains r.seed

let informational r =
  let has_prefix p =
    let n = String.length p in
    String.length r.algo >= n && String.sub r.algo 0 n = p
  in
  has_prefix "rss_mb:" || has_prefix "phase:"

let row_of_json j =
  let ( let* ) o f = Option.bind o f in
  let int k = Option.bind (Jsonu.member k j) Jsonu.to_int in
  let str k = Option.bind (Jsonu.member k j) Jsonu.to_str in
  let* experiment = str "experiment" in
  let* n = int "n" in
  let* algo = str "algo" in
  let* wall_s =
    match Jsonu.member "wall_s" j with
    | Some (Jsonu.Num f) -> Some f
    | Some Jsonu.Null -> Some Float.nan
    | _ -> None
  in
  let* domains = int "domains" in
  let* seed = int "seed" in
  let git_rev = Option.value (str "git_rev") ~default:"unknown" in
  Some { experiment; n; algo; wall_s; domains; seed; git_rev; ts = str "ts"; host = str "host" }

let rows_of_json = function
  | Jsonu.List items ->
    let rows = List.filter_map row_of_json items in
    if rows = [] && items <> [] then Error "no bench records recognised" else Ok rows
  | _ -> Error "expected a JSON array of bench records"

let rows_of_string s =
  match Jsonu.of_string s with Error m -> Error m | Ok j -> rows_of_json j

(* --- comparison ---------------------------------------------------------- *)

type verdict = Regression | Improvement | Within | Info | Noise

type comparison = {
  ckey : string;
  old_wall : float;
  new_wall : float;
  ratio : float;  (* new / old *)
  verdict : verdict;
}

type report = {
  threshold : float;
  min_wall : float;
  comparisons : comparison list;  (* ratio-descending *)
  only_old : string list;
  only_new : string list;
  regressions : int;
  improvements : int;
  old_stamp : string;
  new_stamp : string;
}

let stamp_of = function
  | [] -> "empty"
  | r :: _ ->
    Printf.sprintf "%s%s%s"
      (match r.ts with Some t -> t ^ " " | None -> "")
      (match r.host with Some h -> h ^ " " | None -> "")
      r.git_rev

let index rows =
  let tbl : (string, row) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      if Float.is_finite r.wall_s then
        match Hashtbl.find_opt tbl (key r) with
        | Some prev -> if r.wall_s < prev.wall_s then Hashtbl.replace tbl (key r) r
        | None ->
          Hashtbl.add tbl (key r) r;
          order := key r :: !order)
    rows;
  (tbl, List.rev !order)

let compare_rows ?(threshold = 1.10) ?(min_wall = 0.05) ~old_rows ~new_rows () =
  if not (threshold > 1.0) then invalid_arg "Benchdiff.compare_rows: threshold must be > 1";
  let old_tbl, old_order = index old_rows in
  let new_tbl, new_order = index new_rows in
  let comparisons =
    List.filter_map
      (fun k ->
        match (Hashtbl.find_opt old_tbl k, Hashtbl.find_opt new_tbl k) with
        | Some o, Some n ->
          let ratio = if o.wall_s > 0.0 then n.wall_s /. o.wall_s else Float.nan in
          let verdict =
            if informational o then Info
            else if o.wall_s < min_wall && n.wall_s < min_wall then Noise
            else if Float.is_finite ratio && ratio > threshold then Regression
            else if Float.is_finite ratio && ratio < 1.0 /. threshold then Improvement
            else Within
          in
          Some { ckey = k; old_wall = o.wall_s; new_wall = n.wall_s; ratio; verdict }
        | _ -> None)
      old_order
    |> List.stable_sort (fun a b -> compare b.ratio a.ratio)
  in
  let missing_from tbl order = List.filter (fun k -> not (Hashtbl.mem tbl k)) order in
  let count v = List.length (List.filter (fun c -> c.verdict = v) comparisons) in
  {
    threshold;
    min_wall;
    comparisons;
    only_old = missing_from new_tbl old_order;
    only_new = missing_from old_tbl new_order;
    regressions = count Regression;
    improvements = count Improvement;
    old_stamp = stamp_of old_rows;
    new_stamp = stamp_of new_rows;
  }

let verdict_tag = function
  | Regression -> "REGRESSION"
  | Improvement -> "improved"
  | Within -> "ok"
  | Info -> "info"
  | Noise -> "noise"

let render r =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "old: %s\nnew: %s\n" r.old_stamp r.new_stamp);
  Buffer.add_string b
    (Printf.sprintf "threshold: %.2fx (noise floor %.3fs), %d row pairs\n" r.threshold
       r.min_wall (List.length r.comparisons));
  let w =
    List.fold_left (fun acc c -> max acc (String.length c.ckey)) 24 r.comparisons
  in
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%-*s  %10.4f -> %10.4f  %6s  %s\n" w c.ckey c.old_wall c.new_wall
           (if Float.is_finite c.ratio then Printf.sprintf "%.2fx" c.ratio else "-")
           (verdict_tag c.verdict)))
    r.comparisons;
  List.iter
    (fun k -> Buffer.add_string b (Printf.sprintf "%-*s  only in old\n" w k))
    r.only_old;
  List.iter
    (fun k -> Buffer.add_string b (Printf.sprintf "%-*s  only in new\n" w k))
    r.only_new;
  Buffer.add_string b
    (Printf.sprintf "%d regression%s, %d improvement%s\n" r.regressions
       (if r.regressions = 1 then "" else "s")
       r.improvements
       (if r.improvements = 1 then "" else "s"));
  Buffer.contents b
