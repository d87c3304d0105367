(* One measured step of the replay benchmark, run in a fresh process by
   run.py: set up a workload, replay it under one policy (plain or traced),
   solve the exact family, or drain a workload's source alone. Prints one
   JSON object on stdout.

     resabench.exe setup  --workload W --seed S --dir D --reps K
     resabench.exe replay --workload W --seed S --dir D --policy P [--trace]
     resabench.exe solve  [--trace]
     resabench.exe drain  --workload W --seed S --dir D *)

open Resa_core
module Sim = Resa_sim.Simulator
module Policy = Resa_sim.Policy
module Stream = Resa_sim.Metrics.Stream
module Heartbeat = Resa_sim.Heartbeat
module Jsonu = Resa_obs.Jsonu
module Prof = Resa_obs.Prof
module Registry = Resa_obs.Metrics

let gc_every = 1000

(* --- JSON output ------------------------------------------------------- *)

(* Printed by hand rather than through Jsonu, which rounds floats to six
   digits: digests must round-trip bit for bit. *)

let str s = "\"" ^ Jsonu.escape s ^ "\""
let num x = Printf.sprintf "%.17g" x
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat ", " items ^ "]"
let seconds ns = num (float_of_int ns /. 1e9)

let rss_kb () = match Prof.peak_rss_kb () with Some kb -> kb | None -> 0

(* --- manifest ------------------------------------------------------------ *)

let manifest_path dir = Filename.concat dir "manifest.json"

let write_manifest dir (ms : Workload.manifest list) =
  let part (m : Workload.manifest) =
    obj
      [
        ("jobs", string_of_int m.jobs);
        ("area", string_of_int m.area);
        ("release_end", string_of_int m.release_end);
      ]
  in
  Out_channel.with_open_text (manifest_path dir) (fun oc ->
      output_string oc (obj [ ("parts", arr (List.map part ms)) ]))

let read_manifest dir : Workload.manifest list =
  let text = In_channel.with_open_text (manifest_path dir) In_channel.input_all in
  let int k v =
    match Option.bind (Jsonu.member k v) Jsonu.to_int with
    | Some i -> i
    | None -> failwith ("manifest: missing " ^ k)
  in
  match Result.map (Jsonu.member "parts") (Jsonu.of_string text) with
  | Ok (Some (Jsonu.List parts)) ->
    List.map
      (fun p -> Workload.{ jobs = int "jobs" p; area = int "area" p; release_end = int "release_end" p })
      parts
  | _ -> failwith "manifest: unreadable"

(* --- setup ---------------------------------------------------------------- *)

let setup w ~seed ~dir ~reps =
  let times =
    List.init reps (fun _ ->
        let t0 = Layers.now () in
        let ms = Workload.setup w ~seed ~dir in
        write_manifest dir ms;
        Layers.now () - t0)
  in
  print_endline (obj [ ("setup_s", arr (List.map seconds times)) ])

(* --- replay --------------------------------------------------------------- *)

let find_policy name =
  match
    List.find_opt (fun (p : Policy.t) -> String.lowercase_ascii p.name = name) Policy.all
  with
  | Some p -> p
  | None -> invalid_arg ("unknown policy " ^ name)

let heartbeat_sink oc ms hb = Heartbeat.write oc (Heartbeat.make ~stream:ms hb)

let plain_part ~policy ~hb (part : Workload.part) =
  part.feed (fun next ->
      let ms = Stream.create ~m:part.machine ~reservations:part.resv () in
      let stats =
        Sim.run_stream ~gc_every ~on_heartbeat:(heartbeat_sink hb ms) ~on_record:(Stream.observe ms)
          ~policy ~m:part.machine ~reservations:part.resv next
      in
      (stats, Check.digest stats ms))

type ledger = {
  pull : Layers.layer;
  decide : Layers.layer;
  observe : Layers.layer;
  beat : Layers.layer;
  sim : Layers.layer;
  productive : int ref;
}

let traced_part ~policy ~hb ~ledger ~log (part : Workload.part) =
  part.feed (fun next ->
      let ms = Stream.create ~m:part.machine ~reservations:part.resv () in
      let pull () =
        let t0 = Layers.now () in
        let r = next () in
        Layers.tick ledger.pull t0 (Layers.now ());
        (match (r, log) with Some a, Some l -> Layers.log_arrival l a | _ -> ());
        r
      in
      let on_record r =
        let t0 = Layers.now () in
        Stream.observe ms r;
        Layers.tick ledger.observe t0 (Layers.now ());
        match log with Some l -> Layers.log_start l r | None -> ()
      in
      let on_heartbeat b =
        let t0 = Layers.now () in
        heartbeat_sink hb ms b;
        Layers.tick ledger.beat t0 (Layers.now ())
      in
      let t0 = Layers.now () in
      let stats =
        Sim.run_stream ~gc_every ~on_heartbeat ~on_record ~policy ~m:part.machine
          ~reservations:part.resv pull
      in
      Layers.tick ledger.sim t0 (Layers.now ());
      (stats, Check.digest stats ms))

(* Parts after the distinct ones repeat them (exact-resv) and must repeat
   their digests too. *)
let digest_errors ~manifests ~parts (digests : Check.digest array) =
  let distinct = List.length manifests in
  let per_part =
    List.concat
      (List.mapi
         (fun i (man, part) -> Check.against_manifest part man digests.(i))
         (List.combine manifests (List.filteri (fun i _ -> i < distinct) parts)))
  in
  let repeats = ref [] in
  Array.iteri
    (fun i d ->
      if d <> digests.(i mod distinct) && !repeats = [] then
        repeats := [ Printf.sprintf "part %d does not reproduce part %d" i (i mod distinct) ])
    digests;
  per_part @ !repeats

let counter_of_registry name =
  match List.assoc_opt name (Registry.snapshot ()) with
  | Some (Registry.Counter_v v) -> v
  | _ -> 0

let prof_counter name = Option.value ~default:0 (List.assoc_opt name (Prof.counters ()))

(* One pass over every part: digests in part order, jobs and peak live set
   summed over parts, wall time and minor words of the whole pass. *)
type pass = { digests : Check.digest array; jobs : int; max_live : int; wall_ns : int; words : float }

let run_parts parts run_part =
  let kept = ref [] and jobs = ref 0 and max_live = ref 0 in
  let mw0 = Gc.minor_words () in
  let t0 = Layers.now () in
  List.iteri
    (fun i part ->
      let (stats : Sim.stream_stats), d = run_part i part in
      kept := d :: !kept;
      jobs := !jobs + stats.jobs;
      max_live := max !max_live stats.max_live)
    parts;
  let wall_ns = Layers.now () - t0 in
  let words = Gc.minor_words () -. mw0 in
  { digests = Array.of_list (List.rev !kept); jobs = !jobs; max_live = !max_live; wall_ns; words }

(* The traced replay: the ledger pass (clock reads only), then a counting
   pass with the Prof and registry counters on. Counting costs about a third
   of the wall time, so it never runs under the clock; the counts are
   deterministic, so the second pass reads the first pass's counts. *)
let traced_layers ~policy ~pname ~dir ~hb ~parts ~distinct =
  let ledger =
    {
      pull = Layers.layer "swf_stream";
      decide = Layers.layer "policy";
      observe = Layers.layer "metrics_stream";
      beat = Layers.layer "heartbeat";
      sim = Layers.layer "simulator";
      productive = ref 0;
    }
  in
  let timed = Layers.timed_policy policy ledger.decide ~productive:ledger.productive in
  let logs =
    Array.of_list
      (List.filteri (fun i _ -> i < distinct) parts
      |> List.map (fun (p : Workload.part) -> Layers.log_create ~machine:p.machine ~resv:p.resv))
  in
  let traced =
    run_parts parts (fun i part ->
        let log = if i < distinct then Some logs.(i) else None in
        traced_part ~policy:timed ~hb ~ledger ~log part)
  in
  Registry.reset ();
  Registry.enable ();
  Prof.reset ();
  Prof.enable ();
  let counted = run_parts parts (fun _ part -> plain_part ~policy ~hb part) in
  Prof.disable ();
  Registry.disable ();
  let logs = Array.to_list logs in
  let errors =
    (if counted.digests <> traced.digests then [ "the counting pass changed the digests" ] else [])
    @ List.concat_map (Check.audit ~fcfs:(pname = "fcfs")) logs
  in
  Out_channel.with_open_text
    (Filename.concat dir (Printf.sprintf "trace-%s.json" pname))
    (fun oc ->
      Resa_obs.Chrome.write oc
        (Layers.chrome_slices [ ledger.sim; ledger.pull; ledger.decide; ledger.observe; ledger.beat ]));
  let total = ledger.sim.ns in
  let self = total - ledger.pull.ns - ledger.decide.ns - ledger.observe.ns - ledger.beat.ns in
  let share ns = float_of_int ns /. float_of_int total in
  let per a b = float_of_int a /. float_of_int (max 1 b) in
  let decides = ledger.decide.calls in
  let registry name = float_of_int (counter_of_registry name) in
  let prof name = float_of_int (prof_counter name) in
  let layers =
    [
      ("swf_stream.share", share ledger.pull.ns);
      ("swf_stream.ns_per_job", per ledger.pull.ns traced.jobs);
      ("policy.share", share ledger.decide.ns);
      ("policy.ns_per_decide", per ledger.decide.ns decides);
      ("policy.decides_per_job", per decides traced.jobs);
      ("policy.productive_frac", per !(ledger.productive) decides);
      ("simulator.share", share self);
      ("simulator.ns_per_event", per self (2 * traced.jobs));
      ("simulator.gc_runs", registry "sim.gc_runs");
      ("simulator.gc_reclaimed_nodes", registry "sim.gc_reclaimed_nodes");
      ("simulator.rollbacks", registry "sim.rollbacks");
      ("simulator.max_live", float_of_int traced.max_live);
      ("timeline.gc", prof "timeline.gc");
      ("timeline.change", prof "timeline.change");
      ("timeline.earliest_fit", prof "timeline.earliest_fit");
      ("timeline.fit_attempts", prof "timeline.fit_attempts");
      ("timeline.changes_undone", prof "timeline.changes_undone");
      ("timeline.iso_ns_per_op", Layers.timeline_ns_per_op logs);
      ("eventq.iso_ns_per_op", Layers.eventq_ns_per_op logs);
      ("metrics_stream.share", share ledger.observe.ns);
      ("heartbeat.share", share ledger.beat.ns);
    ]
  in
  (traced, errors, [ ("layers", obj (List.map (fun (k, v) -> (k, num v)) layers)) ])

let replay w ~seed ~dir ~pname ~traced =
  let policy = find_policy pname in
  let parts = Workload.parts w ~seed ~dir in
  let manifests = read_manifest dir in
  let distinct = List.length manifests in
  let hb_path =
    Filename.concat dir
      (Printf.sprintf "heartbeat-%s%s.jsonl" pname (if traced then "-traced" else ""))
  in
  let pass, errors, extra =
    Out_channel.with_open_text hb_path (fun hb ->
        if traced then traced_layers ~policy ~pname ~dir ~hb ~parts ~distinct
        else (run_parts parts (fun _ part -> plain_part ~policy ~hb part), [], []))
  in
  let errors = digest_errors ~manifests ~parts pass.digests @ errors in
  print_endline
    (obj
       ([
          ("wall_s", seconds pass.wall_ns);
          ("jobs", string_of_int pass.jobs);
          ("minor_words", num pass.words);
          ("peak_rss_kb", string_of_int (rss_kb ()));
          ( "digests",
            arr
              (List.init distinct (fun i ->
                   obj (List.map (fun (k, v) -> (k, str v)) (Check.digest_fields pass.digests.(i))))) );
          ("errors", arr (List.map str errors));
        ]
       @ extra))

(* --- exact solver --------------------------------------------------------- *)

let solve ~traced =
  let insts = Workload.exact_instances () in
  if traced then begin
    Prof.reset ();
    Prof.enable ()
  end;
  let mw0 = Gc.minor_words () in
  let t0 = Layers.now () in
  let results =
    Resa_par.with_domains 1 (fun () ->
        List.map (Resa_exact.Bnb.solve ~node_limit:Resa_bench.Bnb_bench.node_limit) insts)
  in
  let wall_ns = Layers.now () - t0 in
  let words = Gc.minor_words () -. mw0 in
  Prof.disable ();
  let errors =
    List.concat
      (List.mapi
         (fun i ((r : Resa_exact.Bnb.result), inst) ->
           (if r.optimal then [] else [ Printf.sprintf "instance %d not solved to optimality" i ])
           @ (match Schedule.validate inst r.schedule with
             | Ok () -> []
             | Error v -> [ Format.asprintf "instance %d: %a" i Schedule.pp_violation v ])
           @
           if Schedule.makespan inst r.schedule <> r.makespan then
             [ Printf.sprintf "instance %d: schedule does not achieve the reported makespan" i ]
           else [])
         (List.combine results insts))
  in
  let nodes = List.fold_left (fun a (r : Resa_exact.Bnb.result) -> a + r.nodes) 0 results in
  let counters =
    if not traced then []
    else
      [
        ( "counters",
          obj
            (List.map
               (fun name -> (name, string_of_int (prof_counter name)))
               [
                 "bnb.prunes_area";
                 "bnb.prunes_fit";
                 "bnb.prunes_twin";
                 "timeline.checkpoint";
                 "timeline.rollback";
                 "timeline.changes_undone";
               ]) );
      ]
  in
  print_endline
    (obj
       ([
          ("wall_s", seconds wall_ns);
          ("minor_words", num words);
          ("nodes", string_of_int nodes);
          ("peak_rss_kb", string_of_int (rss_kb ()));
          ( "results",
            arr
              (List.map
                 (fun (r : Resa_exact.Bnb.result) ->
                   obj
                     [
                       ("makespan", string_of_int r.makespan);
                       ("optimal", string_of_bool r.optimal);
                       ("nodes", string_of_int r.nodes);
                     ])
                 results) );
          ("errors", arr (List.map str errors));
        ]
       @ counters))

(* --- ingest-only drain ---------------------------------------------------- *)

let drain w ~seed ~dir =
  let parts = Workload.parts w ~seed ~dir in
  let rec count next n = match next () with None -> n | Some _ -> count next (n + 1) in
  let pass () = List.fold_left (fun n (p : Workload.part) -> n + p.feed (fun next -> count next 0)) 0 parts in
  let mw0 = Gc.minor_words () in
  let t0 = Layers.now () in
  let jobs = ref 0 in
  while !jobs = 0 || Layers.now () - t0 < 200_000_000 do
    jobs := !jobs + pass ()
  done;
  let ns = Layers.now () - t0 in
  let words = Gc.minor_words () -. mw0 in
  print_endline
    (obj
       [
         ("ns_per_job", num (float_of_int ns /. float_of_int !jobs));
         ("words_per_job", num (words /. float_of_int !jobs));
       ])

(* --- command line --------------------------------------------------------- *)

let () =
  let cmd = ref "" and workload = ref "" and seed = ref 0 and dir = ref "." in
  let policy = ref "" and traced = ref false and reps = ref 1 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--dir", Arg.Set_string dir, "DIR work directory (inputs, heartbeats, traces)");
      ("--policy", Arg.Set_string policy, "NAME fcfs, cons, easy or lsrc");
      ("--trace", Arg.Set traced, " traced run: per-layer ledger, counters, isolation passes");
      ("--reps", Arg.Set_int reps, "K set-up repetitions");
    ]
  in
  let usage = "resabench.exe (setup|replay|solve|drain) [options]" in
  Arg.parse specs (fun a -> cmd := a) usage;
  let w () = Workload.of_name !workload in
  match !cmd with
  | "setup" -> setup (w ()) ~seed:!seed ~dir:!dir ~reps:!reps
  | "replay" -> replay (w ()) ~seed:!seed ~dir:!dir ~pname:!policy ~traced:!traced
  | "solve" -> solve ~traced:!traced
  | "drain" -> drain (w ()) ~seed:!seed ~dir:!dir
  | _ ->
    prerr_endline usage;
    exit 2
