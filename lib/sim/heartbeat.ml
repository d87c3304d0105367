(* Heartbeat rows: the JSONL wire format around [Simulator.heartbeat].

   One line per snapshot. Simulation-data fields (everything the simulator
   measured, the P² wait quantiles and the deterministic registry section)
   live at the top level; wall-clock enrichment (elapsed seconds, jobs/s,
   peak RSS, "wall."-prefixed registry metrics) is segregated under the
   single "wall" member, so a consumer — or a determinism test — drops
   exactly one key to obtain a byte-stable view of the run. *)

module Jsonu = Resa_obs.Jsonu
module Reg = Resa_obs.Metrics

type wall = {
  elapsed_s : float;
  jobs_per_s : float;
  rss_mb : float option;
  wall_metrics : (string * float) list;
}

type row = {
  run : string option;
  hb : Simulator.heartbeat;
  wait_p50 : float;
  wait_p95 : float;
  utilization : float;
  metrics : (string * float) list;
  wall : wall option;
}

(* Histograms flatten to two scalars; counters and gauges to one. The
   names stay registry names, so a row can be joined back to an
   exposition. *)
let flatten views =
  List.concat_map
    (fun (name, v) ->
      match v with
      | Reg.Counter_v n | Reg.Gauge_v n -> [ (name, float_of_int n) ]
      | Reg.Histogram_v h ->
        [ (name ^ ".count", float_of_int h.Reg.count); (name ^ ".sum", float_of_int h.Reg.sum) ])
    views

let registry_sections () =
  let sim, wall =
    List.partition (fun (name, _) -> not (Reg.is_wall name)) (Reg.snapshot ())
  in
  (flatten sim, flatten wall)

let make ?run ?stream ?(registry = false) ?wall hb =
  let wait_p50, wait_p95, utilization =
    match stream with
    | None -> (Float.nan, Float.nan, Float.nan)
    | Some ms ->
      let s = Metrics.Stream.summary ms in
      (Metrics.Stream.wait_p50 ms, Metrics.Stream.wait_p95 ms, s.Metrics.utilization)
  in
  let metrics, wall_metrics =
    if registry && Reg.enabled () then registry_sections () else ([], [])
  in
  let wall =
    match wall with
    | None -> None
    | Some w -> Some { w with wall_metrics = w.wall_metrics @ wall_metrics }
  in
  { run; hb; wait_p50; wait_p95; utilization; metrics; wall }

(* --- JSON ---------------------------------------------------------------- *)

(* JSON has no NaN: unknown floats (quantiles before the first observation,
   RSS off-Linux) serialise as null and parse back as nan/None. *)
let fnum f = if Float.is_finite f then Jsonu.Num f else Jsonu.Null

let to_json r =
  let open Jsonu in
  let i n = Num (float_of_int n) in
  let hb = r.hb in
  let metrics_obj kvs = Obj (List.map (fun (k, v) -> (k, fnum v)) kvs) in
  let fields =
    [
      ("ev", Str "heartbeat");
      ("seq", i hb.Simulator.hb_seq);
      ("t", i hb.Simulator.hb_time);
      ("events", i hb.Simulator.hb_events);
      ("admitted", i hb.Simulator.hb_admitted);
      ("completed", i hb.Simulator.hb_completed);
      ("queued", i hb.Simulator.hb_queued);
      ("live", i hb.Simulator.hb_live);
      ("makespan", i hb.Simulator.hb_makespan);
      ("nodes", i hb.Simulator.hb_nodes);
      ("wait_p50", fnum r.wait_p50);
      ("wait_p95", fnum r.wait_p95);
      ("util", fnum r.utilization);
    ]
  in
  let fields = match r.run with None -> fields | Some name -> ("run", Str name) :: fields in
  let fields =
    if r.metrics = [] then fields else fields @ [ ("metrics", metrics_obj r.metrics) ]
  in
  let fields =
    match r.wall with
    | None -> fields
    | Some w ->
      let wfields =
        [ ("elapsed_s", fnum w.elapsed_s); ("jobs_per_s", fnum w.jobs_per_s) ]
        @ (match w.rss_mb with None -> [ ("rss_mb", Null) ] | Some v -> [ ("rss_mb", fnum v) ])
        @ if w.wall_metrics = [] then [] else [ ("metrics", metrics_obj w.wall_metrics) ]
      in
      fields @ [ ("wall", Obj wfields) ]
  in
  Obj fields

let of_json j =
  let ( let* ) o f = Option.bind o f in
  let int k = Option.bind (Jsonu.member k j) Jsonu.to_int in
  let num from k =
    match Jsonu.member k from with
    | Some (Jsonu.Num f) -> Some f
    | Some Jsonu.Null -> Some Float.nan
    | _ -> None
  in
  let metrics_of = function
    | Some (Jsonu.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match v with Jsonu.Num f -> Some (k, f) | Jsonu.Null -> Some (k, Float.nan) | _ -> None)
        kvs
    | _ -> []
  in
  let row =
    let* () = match Jsonu.member "ev" j with Some (Jsonu.Str "heartbeat") -> Some () | _ -> None in
    let* hb_seq = int "seq" in
    let* hb_time = int "t" in
    let* hb_events = int "events" in
    let* hb_admitted = int "admitted" in
    let* hb_completed = int "completed" in
    let* hb_queued = int "queued" in
    let* hb_live = int "live" in
    let* hb_makespan = int "makespan" in
    let* hb_nodes = int "nodes" in
    let* wait_p50 = num j "wait_p50" in
    let* wait_p95 = num j "wait_p95" in
    let* utilization = num j "util" in
    let run = Option.bind (Jsonu.member "run" j) Jsonu.to_str in
    let metrics = metrics_of (Jsonu.member "metrics" j) in
    let wall =
      match Jsonu.member "wall" j with
      | Some (Jsonu.Obj _ as w) ->
        let* elapsed_s = num w "elapsed_s" in
        let* jobs_per_s = num w "jobs_per_s" in
        let rss_mb =
          match Jsonu.member "rss_mb" w with Some (Jsonu.Num f) -> Some f | _ -> None
        in
        Some (Some { elapsed_s; jobs_per_s; rss_mb; wall_metrics = metrics_of (Jsonu.member "metrics" w) })
      | _ -> Some None
    in
    let* wall = wall in
    Some
      {
        run;
        hb =
          Simulator.
            {
              hb_seq;
              hb_time;
              hb_events;
              hb_admitted;
              hb_completed;
              hb_queued;
              hb_live;
              hb_makespan;
              hb_nodes;
            };
        wait_p50;
        wait_p95;
        utilization;
        metrics;
        wall;
      }
  in
  match row with Some r -> Ok r | None -> Error "not a heartbeat row"

let parse_line line =
  match Jsonu.of_string line with Error m -> Error m | Ok j -> of_json j

let write oc r =
  Jsonu.output oc (to_json r);
  output_char oc '\n'
