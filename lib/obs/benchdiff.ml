(* Benchmark regression gate: compare two BENCHMARK_results.json files
   metric by metric against the directions and bounds BENCHMARK.json
   declares (the reading benchmark/run.py writes and its readers apply).

   A metric's verdict compares headline values, [change / parent - 1],
   signed by its direction. It is unresolved when the parent's own q1-q3
   spread is wider than the bound: a difference the size of the bound is
   then inside the parent's noise. Metrics declared without a bound (the
   per-layer ones) are printed and never judged. *)

type better = Higher | Lower
type declared = (string * (better * float option)) list
type metric = { value : float; median : float; q1 : float; q3 : float; unit : string }

type results = {
  workload : string;
  seed : int;
  trace : int;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (string * metric) list;
}

let ( let* ) = Result.bind
let field k j = Option.to_result ~none:(Printf.sprintf "missing or ill-typed %S" k) j
let num k j = match Jsonu.member k j with Some (Jsonu.Num f) -> Some f | _ -> None
let int k j = Option.bind (Jsonu.member k j) Jsonu.to_int
let str k j = Option.bind (Jsonu.member k j) Jsonu.to_str

(* Fails on the first element [f] rejects. *)
let map_all f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

let declared_entry j =
  let* name = field "name" (str "name" j) in
  let* better =
    match str "better" j with
    | Some "higher" -> Ok Higher
    | Some "lower" -> Ok Lower
    | _ -> Error (Printf.sprintf "%s: \"better\" must be \"higher\" or \"lower\"" name)
  in
  Ok (name, (better, num "bound" j))

let declared_of_string s =
  let* j = Jsonu.of_string s in
  let list k = match Jsonu.member k j with Some (Jsonu.List l) -> l | _ -> [] in
  map_all declared_entry (list "end_to_end" @ list "per_layer")

let metric_of (name, j) =
  let get k = field (name ^ "." ^ k) (num k j) in
  let* value = get "value" in
  let* median = get "median" in
  let* q1 = get "q1" in
  let* q3 = get "q3" in
  let* unit = field (name ^ ".unit") (str "unit" j) in
  Ok (name, { value; median; q1; q3; unit })

let results_of_string s =
  let* j = Jsonu.of_string s in
  let* workload = field "workload" (str "workload" j) in
  let* seed = field "seed" (int "seed" j) in
  let* trace = field "trace" (int "trace" j) in
  let* attempted = field "attempted" (int "attempted" j) in
  let* failed = field "failed" (int "failed" j) in
  let* errors =
    match Jsonu.member "errors" j with
    | Some (Jsonu.List l) -> map_all (fun e -> field "errors" (Jsonu.to_str e)) l
    | _ -> Error "missing or ill-typed \"errors\""
  in
  let* metrics =
    match Jsonu.member "metrics" j with
    | Some (Jsonu.Obj l) -> map_all metric_of l
    | _ -> Error "missing or ill-typed \"metrics\""
  in
  let metrics = List.sort (fun (a, _) (b, _) -> String.compare a b) metrics in
  Ok { workload; seed; trace; attempted; failed; errors; metrics }

(* --- comparison ---------------------------------------------------------- *)

type verdict = Worse | Better | Within | Unresolved | Unbounded

type comparison = {
  name : string;
  parent : metric;
  change : metric;
  delta : float;
  bound : float option;
  spread : float;
  verdict : verdict;
}

type report = {
  run : string;
  comparisons : comparison list;
  only_parent : string list;
  only_change : string list;
  parent_failed : float;
  change_failed : float;
  regressions : int;
}

let judge declared name (parent : metric) (change : metric) =
  let delta = (change.value /. parent.value) -. 1. in
  let spread = (parent.q3 -. parent.q1) /. Float.abs parent.median in
  let bound, verdict =
    match List.assoc_opt name declared with
    | Some (better, Some bound) ->
      let worse_by = match better with Lower -> delta | Higher -> -.delta in
      ( Some bound,
        if spread > bound then Unresolved
        else if worse_by > bound then Worse
        else if worse_by < -.bound then Better
        else Within )
    | _ -> (None, Unbounded)
  in
  { name; parent; change; delta; bound; spread; verdict }

let run_of r = Printf.sprintf "%s, seed %d, trace %d" r.workload r.seed r.trace
let failed_share r = float_of_int r.failed /. float_of_int (max 1 r.attempted)

let compare declared ~parent ~change =
  let with_errors who r =
    match r.errors with
    | [] -> Ok ()
    | e :: _ ->
      Error (Printf.sprintf "the %s run reported %d error(s), first: %s" who (List.length r.errors) e)
  in
  let* () = with_errors "parent" parent in
  let* () = with_errors "change" change in
  if run_of parent <> run_of change then
    Error
      (Printf.sprintf "different runs: parent is %s, change is %s" (run_of parent) (run_of change))
  else
    let comparisons =
      List.filter_map
        (fun (name, p) ->
          Option.map (judge declared name p) (List.assoc_opt name change.metrics))
        parent.metrics
    in
    let missing_from a b = List.filter (fun (k, _) -> not (List.mem_assoc k b)) a |> List.map fst in
    if comparisons = [] then Error "no metric in common"
    else
      let parent_failed = failed_share parent and change_failed = failed_share change in
      let worse = List.length (List.filter (fun c -> c.verdict = Worse) comparisons) in
      Ok
        {
          run = run_of parent;
          comparisons;
          only_parent = missing_from parent.metrics change.metrics;
          only_change = missing_from change.metrics parent.metrics;
          parent_failed;
          change_failed;
          regressions = (worse + if change_failed > parent_failed then 1 else 0);
        }

let verdict_tag c =
  match c.verdict with
  | Worse -> "WORSE"
  | Better -> "better"
  | Within -> "within"
  | Unresolved -> Printf.sprintf "unresolved (parent spread %.0f%%)" (100. *. c.spread)
  | Unbounded -> "no bound"

let render r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "run: %s" r.run;
  let w = List.fold_left (fun acc c -> max acc (String.length c.name)) 24 r.comparisons in
  line "%-*s %14s    %14s %-11s %8s  %5s  %s" w "metric" "parent" "change" "unit" "delta" "bound"
    "verdict";
  List.iter
    (fun c ->
      line "%-*s %14.6g -> %14.6g %-11s %+7.1f%%  %5s  %s" w c.name c.parent.value c.change.value
        c.parent.unit (100. *. c.delta)
        (match c.bound with Some x -> Printf.sprintf "%.0f%%" (100. *. x) | None -> "-")
        (verdict_tag c))
    r.comparisons;
  List.iter (fun k -> line "%-*s only in parent" w k) r.only_parent;
  List.iter (fun k -> line "%-*s only in change" w k) r.only_change;
  line "failed share: %.3f -> %.3f%s" r.parent_failed r.change_failed
    (if r.change_failed > r.parent_failed then "  WORSE" else "");
  let worse = List.filter_map (fun c -> if c.verdict = Worse then Some c.name else None) r.comparisons in
  line "%d regression%s%s" r.regressions
    (if r.regressions = 1 then "" else "s")
    (if worse = [] then "" else ": " ^ String.concat ", " worse);
  Buffer.contents b
