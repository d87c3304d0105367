(* resa: command-line front end.

   Subcommands:
     generate   emit an instance file from one of the built-in families
     solve      run a scheduling algorithm on an instance file
     replay     online simulation of a (synthetic or SWF) trace under the
                chosen policies, streamed in constant memory: incremental
                metrics, timeline history GC, flat RSS (--trace/--chrome/--csv
                export the observability streams)
     explain    replay a JSONL event trace: per job, why it started when it did
     top        live terminal view of a heartbeat stream (replay --heartbeat)
     benchdiff  regression gate over two benchmark/run.py result files
     trace      emit a synthetic Standard Workload Format trace
     bounds     print the Figure 4 bound curves for a list of alphas
     info       summarise an instance file (bounds, alpha interval, profile)

   Experiments that regenerate the paper's figures live in the benchmark
   harness: `dune exec bench/main.exe [fig1..fig4 t1..t5 ablation perf]`. *)

open Cmdliner
open Resa_core
open Resa_algos

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (reproducible).")

let read_instance path =
  match if path = "-" then Instance_io.of_string (In_channel.input_all stdin) else Instance_io.read_file path with
  | Ok inst -> inst
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate family k m len c n alpha pmax seed =
  let rng = Prng.create ~seed in
  let known_opt = ref None in
  let inst =
    match family with
    | "prop2" ->
      let inst, opt = Resa_gen.Adversarial.prop2 ~k in
      known_opt := Some opt;
      inst
    | "graham" ->
      let inst, opt = Resa_gen.Adversarial.graham_tight ~m in
      known_opt := Some opt;
      inst
    | "fcfs-bad" ->
      let inst, opt = Resa_gen.Adversarial.fcfs_bad ~m ~len in
      known_opt := Some opt;
      inst
    | "fig2" -> Resa_gen.Adversarial.figure2_example ()
    | "packed" ->
      let p = Resa_gen.Packed.generate rng ~m ~c ~target_jobs:n ~reservation_fraction:0.2 () in
      known_opt := Some p.optimal;
      p.instance
    | "random" -> Resa_gen.Random_inst.alpha_restricted rng ~m ~n ~alpha ~pmax ()
    | "workload" -> Resa_gen.Random_inst.cluster_workload rng ~m ~n ~max_runtime:pmax
    | other ->
      Printf.eprintf "unknown family %S\n" other;
      exit 2
  in
  (match !known_opt with Some v -> Printf.printf "# optimal %d\n" v | None -> ());
  print_string (Instance_io.to_string inst)

let generate_cmd =
  let family =
    Arg.(
      value
      & pos 0 string "random"
      & info [] ~docv:"FAMILY"
          ~doc:"One of: prop2, graham, fcfs-bad, fig2, packed, random, workload.")
  in
  let k = Arg.(value & opt int 4 & info [ "k" ] ~doc:"Parameter k of the prop2 family.") in
  let m = Arg.(value & opt int 8 & info [ "m" ] ~doc:"Number of machines.") in
  let len = Arg.(value & opt int 20 & info [ "len" ] ~doc:"Narrow-job length (fcfs-bad).") in
  let c = Arg.(value & opt int 20 & info [ "c" ] ~doc:"Target optimal makespan (packed).") in
  let n = Arg.(value & opt int 12 & info [ "n" ] ~doc:"Number of jobs.") in
  let alpha = Arg.(value & opt float 0.5 & info [ "alpha" ] ~doc:"Alpha restriction (random).") in
  let pmax = Arg.(value & opt int 10 & info [ "pmax" ] ~doc:"Maximum job duration.") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit an instance file from a built-in family")
    Term.(const generate $ family $ k $ m $ len $ c $ n $ alpha $ pmax $ seed_arg)

(* ------------------------------------------------------------------ *)
(* solve                                                               *)
(* ------------------------------------------------------------------ *)

let priority_of_string s =
  match String.lowercase_ascii s with
  | "fifo" -> Priority.Fifo
  | "lpt" -> Priority.Lpt
  | "spt" -> Priority.Spt
  | "widest" -> Priority.Widest_first
  | "narrowest" -> Priority.Narrowest_first
  | "area" -> Priority.Largest_area_first
  | s when String.length s > 7 && String.sub s 0 7 = "random:" ->
    Priority.Random (int_of_string (String.sub s 7 (String.length s - 7)))
  | other ->
    Printf.eprintf "unknown priority %S\n" other;
    exit 2

let solve path algo priority show_gantt width =
  let inst = read_instance path in
  let priority = priority_of_string priority in
  let named name sched = (name, sched) in
  (* The exact DP (one machine, at most 20 jobs) and the preemptive optimum
     (unit-width jobs) reject other instances: a usage error, not a crash. *)
  let restricted solver =
    match solver inst with
    | r -> r
    | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  let name, sched =
    match String.lowercase_ascii algo with
    | "lsrc" -> named "LSRC" (Lsrc.run ~priority inst)
    | "fcfs" -> named "FCFS" (Fcfs.run ~priority inst)
    | "easy" -> named "EASY" (Backfill.easy ~priority inst)
    | "conservative" | "cons" -> named "CONS" (Backfill.conservative ~priority inst)
    | "shelf-nfdh" -> named "NFDH" (Shelf.run Shelf.Nfdh inst)
    | "shelf-ffdh" -> named "FFDH" (Shelf.run Shelf.Ffdh inst)
    | "bnb" | "opt" ->
      let r = Resa_exact.Bnb.solve inst in
      named (if r.optimal then "OPT" else "B&B(budget hit)") r.schedule
    | "dp" ->
      let sched, _ = restricted Resa_exact.Single_machine.solve in
      named "OPT(dp)" sched
    | "preemptive" ->
      (* Preemptive optimum reported on its own (it has no Schedule.t). *)
      let r = restricted Preemptive.optimal in
      Printf.printf "preemptive optimal makespan: %d\n" r.makespan;
      Array.iteri
        (fun i l ->
          Printf.printf "  J%d:" i;
          List.iter (fun (lo, hi) -> Printf.printf " [%d,%d)" lo hi) l;
          print_newline ())
        r.intervals;
      exit 0
    | other ->
      Printf.eprintf "unknown algorithm %S\n" other;
      exit 2
  in
  (match Schedule.validate inst sched with
  | Ok () -> ()
  | Error v ->
    Printf.eprintf "internal error: infeasible schedule: %s\n"
      (Format.asprintf "%a" Schedule.pp_violation v);
    exit 3);
  let cmax = Schedule.makespan inst sched in
  let lb = Resa_exact.Lower_bounds.best inst in
  Printf.printf "%s makespan: %d\n" name cmax;
  Printf.printf "lower bound: %d (ratio <= %.3f)\n" lb
    (if lb > 0 then float_of_int cmax /. float_of_int lb else Float.nan);
  Printf.printf "utilization: %.3f\n" (Schedule.utilization inst sched);
  if show_gantt then print_string (Gantt.render ~width inst sched)

let solve_cmd =
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Instance file ('-' for stdin).") in
  let algo =
    Arg.(
      value & opt string "lsrc"
      & info [ "algo"; "a" ]
          ~doc:
            "lsrc, fcfs, easy, conservative, shelf-nfdh, shelf-ffdh, bnb, dp (exact, m=1), \
             or preemptive (exact, q=1 jobs).")
  in
  let priority =
    Arg.(
      value & opt string "fifo"
      & info [ "priority"; "p" ] ~doc:"fifo, lpt, spt, widest, narrowest, area, random:SEED.")
  in
  let gantt = Arg.(value & flag & info [ "gantt"; "g" ] ~doc:"Render an ASCII Gantt chart.") in
  let width = Arg.(value & opt int 72 & info [ "width" ] ~doc:"Gantt chart width.") in
  Cmd.v
    (Cmd.info "solve" ~doc:"Schedule an instance file and report the makespan")
    Term.(const solve $ path $ algo $ priority $ gantt $ width)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay swf_path m n max_runtime mean_gap seed policy_name overestimate heartbeat_out hb_every
    prom_out metrics_on max_allocs trace_out chrome_out csv_out =
  (* --prom needs the registry populated; --metrics asks for it explicitly
     (same switch as RESA_METRICS=1). *)
  if metrics_on || prom_out <> None then Resa_obs.Metrics.enable ();
  (* Exports are opt-in: without them a run keeps no per-job state, so the
     constant-memory replay is unchanged. The event stream goes to one
     callback per run, which writes each event to --trace as it happens and
     keeps each start's provenance, by job id, for the CSV; start records
     and archive job numbers are collected only for --chrome/--csv. *)
  let collect = chrome_out <> None || csv_out <> None in
  let exports = ref [] in
  let policies =
    let open Resa_sim.Policy in
    match String.lowercase_ascii policy_name with
    | "all" -> all
    | "fcfs" -> [ fcfs ]
    | "easy" -> [ easy ]
    | "cons" | "conservative" -> [ conservative ]
    | "lsrc" | "aggressive" -> [ aggressive ]
    | other ->
      Printf.eprintf "unknown policy %S\n" other;
      exit 2
  in
  (* One pass per policy over a freshly opened stream (file re-read or
     synthetic re-seeded): nothing is shared across runs and nothing is
     retained within one, so the process high-water mark reflects a single
     replay's live set. Runs are sequential on purpose — overlapping them
     would sum their footprints into the RSS column. *)
  let with_stream k =
    match swf_path with
    | Some path -> Resa_swf.Swf_stream.with_file ~m path k
    | None ->
      let rng = Prng.create ~seed in
      k (Resa_swf.Swf_stream.synthetic ~overestimate rng ~m ~n ~max_runtime ~mean_gap)
  in
  (* Heartbeat sink: one JSONL file shared by all runs (run-tagged rows,
     like --trace); each line is flushed immediately so `resa top` can
     follow the stream through a pipe while the replay runs. *)
  let with_hb_channel k =
    match heartbeat_out with
    | None -> k None
    | Some "-" -> k (Some stdout)
    | Some path -> Out_channel.with_open_text path (fun oc -> k (Some oc))
  in
  let trace_oc =
    match Option.map open_out trace_out with
    | oc -> oc
    | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  (* Policies that blew the --max-allocs-per-event budget, reported (and
     failing the process) after the table so every row still prints. *)
  let over_budget = ref [] in
  with_hb_channel (fun hb_oc ->
      Printf.printf "%-8s %9s %10s %10s %9s %9s %7s %6s %8s %9s %8s %8s %9s\n" "policy" "jobs"
        "Cmax" "mean_wait" "p50_wait" "p95_wait" "slowdn" "util" "wall_s" "jobs/s" "max_live"
        "rss_MB" "allocs/ev";
      List.iter
        (fun policy ->
          let ms = Resa_sim.Metrics.Stream.create ~m ~reservations:[] () in
          let name = policy.Resa_sim.Policy.name in
          let provenances = Hashtbl.create 16 in
          let obs =
            if trace_oc = None && csv_out = None then Resa_obs.Trace.null
            else
              Resa_obs.Trace.sink (fun ev ->
                  Option.iter
                    (fun oc ->
                      output_string oc (Resa_obs.Trace.to_json ~run:name ev);
                      output_char oc '\n')
                    trace_oc;
                  match ev with
                  | Resa_obs.Trace.Job_start { job; provenance; _ } when csv_out <> None ->
                    Hashtbl.replace provenances job provenance
                  | _ -> ())
          in
          let records = ref [] and job_numbers = ref [] in
          let on_record =
            if collect then (fun r ->
              Resa_sim.Metrics.Stream.observe ms r;
              records := r :: !records)
            else Resa_sim.Metrics.Stream.observe ms
          in
          let mw0 = Gc.minor_words () in
          let t0 = Resa_obs.Prof.now_ns () in
          let on_heartbeat =
            Option.map
              (fun oc hb ->
                let elapsed_s = float_of_int (Resa_obs.Prof.now_ns () - t0) /. 1e9 in
                let wall =
                  Resa_sim.Heartbeat.
                    {
                      elapsed_s;
                      jobs_per_s =
                        float_of_int hb.Resa_sim.Simulator.hb_completed
                        /. Float.max elapsed_s 1e-9;
                      rss_mb =
                        Option.map
                          (fun kb -> float_of_int kb /. 1024.)
                          (Resa_obs.Prof.peak_rss_kb ());
                      wall_metrics = [];
                    }
                in
                Resa_sim.Heartbeat.write oc
                  (Resa_sim.Heartbeat.make ~run:name ~stream:ms ~registry:true ~wall hb);
                flush oc)
              hb_oc
          in
          (* Built once per run: a closure made inside the pull thunk would
             cost five words per job. *)
          let to_arrival (a : Resa_swf.Swf_stream.arrival) =
            if collect then job_numbers := a.job_number :: !job_numbers;
            Resa_sim.Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate }
          in
          let stats =
            try
              with_stream (fun src ->
                  Resa_sim.Simulator.run_stream ~obs ~heartbeat_every:hb_every ?on_heartbeat
                    ~on_record ~policy ~m
                    (fun () -> Option.map to_arrival (src ())))
            with Resa_swf.Swf_stream.Parse_error { line; msg } ->
              Printf.eprintf "error: line %d: %s\n" line msg;
              exit 2
          in
          let wall_s = float_of_int (Resa_obs.Prof.now_ns () - t0) /. 1e9 in
          (* Minor words per event (arrival or completion): the whole
             replay, iterator and incremental metrics included — the number
             the flat-core engine keeps O(1). *)
          let allocs_ev =
            (Gc.minor_words () -. mw0)
            /. float_of_int (max 1 (2 * stats.Resa_sim.Simulator.jobs))
          in
          if max_allocs > 0.0 && allocs_ev > max_allocs then
            over_budget := (name, allocs_ev) :: !over_budget;
          let s = Resa_sim.Metrics.Stream.summary ms in
          let rss_mb =
            match Resa_obs.Prof.peak_rss_kb () with
            | Some kb -> Printf.sprintf "%.1f" (float_of_int kb /. 1024.)
            | None -> "-"
          in
          Printf.printf
            "%-8s %9d %10d %10.1f %9.0f %9.0f %7.2f %6.3f %8.2f %9.0f %8d %8s %9.1f\n"
            name stats.Resa_sim.Simulator.jobs stats.Resa_sim.Simulator.makespan
            s.Resa_sim.Metrics.mean_wait
            (Resa_sim.Metrics.Stream.wait_p50 ms)
            (Resa_sim.Metrics.Stream.wait_p95 ms)
            s.Resa_sim.Metrics.mean_slowdown s.Resa_sim.Metrics.utilization wall_s
            (float_of_int stats.Resa_sim.Simulator.jobs /. Float.max wall_s 1e-9)
            stats.Resa_sim.Simulator.max_live rss_mb allocs_ev;
          (* Ids number the arrivals in stream order, which is submission
             order: sorting the start-ordered records by id restores the
             submission order the batch trace format promises. *)
          let records =
            List.sort
              (fun (a : Resa_sim.Simulator.record) b -> Int.compare (Job.id a.job) (Job.id b.job))
              !records
          in
          let trace =
            Resa_sim.Simulator.
              { m; reservations = []; records; makespan = stats.Resa_sim.Simulator.makespan }
          in
          exports :=
            (name, provenances, trace, Array.of_list (List.rev !job_numbers)) :: !exports)
        policies);
  Option.iter close_out trace_oc;
  let exports = List.rev !exports in
  Option.iter
    (fun path ->
      let slices =
        List.concat_map
          (fun (name, _, trace, _) -> Resa_sim.Sim_trace.chrome_slices ~process:name trace)
          exports
        @ (if Resa_obs.Metrics.enabled () then
             Resa_obs.Chrome.of_spans ~process:"executor" (Resa_obs.Prof.spans ())
           else [])
      in
      Out_channel.with_open_text path (fun oc -> Resa_obs.Chrome.write oc slices))
    chrome_out;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iteri
            (fun i (name, provenances, trace, job_numbers) ->
              let provenance id =
                match Hashtbl.find_opt provenances id with
                | Some p -> Resa_obs.Trace.provenance_to_string p
                | None -> ""
              in
              let csv =
                Resa_sim.Metrics.per_job_csv ~run:name
                  (Resa_sim.Metrics.per_job ~provenance ~job_numbers trace)
              in
              (* One header for the whole file. *)
              let csv =
                if i = 0 then csv
                else
                  match String.index_opt csv '\n' with
                  | Some k -> String.sub csv (k + 1) (String.length csv - k - 1)
                  | None -> csv
              in
              Out_channel.output_string oc csv)
            exports))
    csv_out;
  (* The registry is process-global and cumulative across the sequential
     runs: the exposition describes the whole replay. *)
  Option.iter
    (fun path ->
      if path = "-" then print_string (Resa_obs.Metrics.expose ())
      else Out_channel.with_open_text path (fun oc -> output_string oc (Resa_obs.Metrics.expose ())))
    prom_out;
  if !over_budget <> [] then begin
    List.iter
      (fun (name, allocs_ev) ->
        Printf.eprintf "error: %s allocated %.1f minor words/event (budget %.1f)\n" name
          allocs_ev max_allocs)
      (List.rev !over_budget);
    exit 1
  end

let replay_cmd =
  let swf =
    Arg.(
      value
      & opt (some string) None
      & info [ "swf" ] ~docv:"FILE"
          ~doc:"SWF trace file, streamed line by line (otherwise synthetic).")
  in
  let m = Arg.(value & opt int 128 & info [ "m" ] ~doc:"Number of machines.") in
  let n = Arg.(value & opt int 200_000 & info [ "n" ] ~doc:"Synthetic trace length.") in
  let max_runtime =
    Arg.(value & opt int 2000 & info [ "max-runtime" ] ~doc:"Synthetic max runtime.")
  in
  let mean_gap =
    (* 150 keeps the synthetic system stable (bounded queue) even under
       FCFS, so the replay's memory footprint is flat by default. *)
    Arg.(value & opt float 150.0 & info [ "mean-gap" ] ~doc:"Mean inter-arrival gap.")
  in
  let policy =
    Arg.(value & opt string "all" & info [ "policy" ] ~doc:"all, fcfs, easy, cons or lsrc.")
  in
  let overestimate =
    Arg.(
      value & opt float 2.0
      & info [ "overestimate" ]
          ~doc:"Mean walltime overestimation factor for synthetic traces (>= 1).")
  in
  let heartbeat_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "heartbeat" ] ~docv:"FILE"
          ~doc:
            "Write periodic telemetry snapshots (JSONL, one run-tagged row per interval: jobs, \
             queue depth, live jobs, P² wait quantiles, timeline segments, wall-clock rate and \
             RSS) to $(docv) ('-' for stdout). Each line is flushed immediately, so \
             $(b,resa top) can follow the file or a pipe live.")
  in
  let hb_every =
    Arg.(
      value & opt int 0
      & info [ "heartbeat-every" ] ~docv:"K"
          ~doc:
            "Snapshot every $(docv) events (arrivals + completions). Default with --heartbeat \
             and no cadence: 65536.")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "After the replay, write the metrics registry as a Prometheus text exposition to \
             $(docv) ('-' for stdout). Implies --metrics.")
  in
  let metrics_on =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Enable the metrics registry and wall-clock spans for this run (same switch as \
             $(b,RESA_METRICS=1)); heartbeat rows then carry the registry section, engine \
             counts included, and --chrome adds the executor spans.")
  in
  let max_allocs =
    Arg.(
      value & opt float 0.0
      & info [ "max-allocs-per-event" ] ~docv:"W"
          ~doc:
            "Fail (exit 1) if any policy's replay allocates more than $(docv) minor words per \
             event (arrival or completion), whole run including the stream iterator and \
             incremental metrics; 0 disables. The CI allocation-budget gate for the \
             allocation-free decide loop.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the structured event stream (JSONL, one event per line, tagged with the \
             policy name) to $(docv), each event as it happens. The file holds every event of \
             every run, so it grows with the replay's length.")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON Gantt view (one process per policy, one track per \
             processor; open in Perfetto or chrome://tracing) to $(docv).")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:
            "Write per-job metrics (submit, start, wait, slowdown, provenance) as CSV to \
             $(docv).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Online simulation of a (synthetic or SWF) trace, streamed in constant memory: \
          incremental metrics, no materialised job list, timeline history GC; optional \
          event-trace, Gantt and per-job exports")
    Term.(
      const replay $ swf $ m $ n $ max_runtime $ mean_gap $ seed_arg $ policy $ overestimate
      $ heartbeat_out $ hb_every $ prom_out $ metrics_on $ max_allocs
      $ trace_out $ chrome_out $ csv_out)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)
(* ------------------------------------------------------------------ *)

let explain path =
  (* One line at a time: the events are parsed as [Explain.render] asks
     for them, so memory follows the jobs, not the size of the trace. *)
  let render ic =
    let rec events lineno () =
      match In_channel.input_line ic with
      | None -> Seq.Nil
      | Some line when String.trim line = "" -> events (lineno + 1) ()
      | Some line -> (
        match Resa_obs.Trace.parse_line line with
        | Ok ev -> Seq.Cons (ev, events (lineno + 1))
        | Error msg ->
          Printf.eprintf "error: %s:%d: %s\n" path lineno msg;
          exit 2)
    in
    Resa_obs.Explain.render stdout (events 1)
  in
  if path = "-" then render stdin
  else
    match In_channel.with_open_text path render with
    | () -> ()
    | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2

let explain_cmd =
  let path =
    Arg.(
      value
      & pos 0 string "-"
      & info [] ~docv:"FILE" ~doc:"JSONL event trace from replay --trace ('-' for stdin).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Replay a JSONL event trace and print, per job, why it started when it did")
    Term.(const explain $ path)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* Live terminal view of a heartbeat stream. Reads rows as they arrive
   (a pipe from `resa replay --heartbeat -`, or a file being appended
   to), keeps the latest row plus short rate/occupancy histories per run,
   and redraws on every row when stdout is a terminal. On a non-terminal
   stdout it stays quiet and prints one final dashboard at end of
   stream, so `resa top < hb.jsonl` doubles as a summariser. *)

let top path =
  let ic =
    if path = "-" then stdin
    else
      try open_in path
      with Sys_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
  in
  let module H = Resa_sim.Heartbeat in
  let hist_cap = 48 in
  let runs : (string, H.row * float list * float list) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  let malformed = ref 0 in
  let observe (r : H.row) =
    let name = Option.value r.H.run ~default:"run" in
    let _, rates, lives =
      match Hashtbl.find_opt runs name with
      | Some s -> s
      | None ->
        order := name :: !order;
        (r, [], [])
    in
    let push v l = if List.length l >= hist_cap then v :: List.filteri (fun i _ -> i < hist_cap - 1) l else v :: l in
    let rate = match r.H.wall with Some w -> w.H.jobs_per_s | None -> Float.nan in
    Hashtbl.replace runs name
      (r, push rate rates, push (float_of_int r.H.hb.Resa_sim.Simulator.hb_live) lives)
  in
  let render () =
    let b = Buffer.create 1024 in
    List.iter
      (fun name ->
        let r, rates, lives = Hashtbl.find runs name in
        let hb = r.H.hb in
        let open Resa_sim.Simulator in
        Buffer.add_string b
          (Printf.sprintf "== %s ==  snapshot %d  t=%d  events=%d\n" name hb.hb_seq hb.hb_time
             hb.hb_events);
        Buffer.add_string b
          (Printf.sprintf "  jobs: %d admitted, %d completed, %d queued, %d live\n" hb.hb_admitted
             hb.hb_completed hb.hb_queued hb.hb_live);
        Buffer.add_string b
          (Printf.sprintf "  timeline: %d nodes, makespan %d\n" hb.hb_nodes hb.hb_makespan);
        let f v = if Float.is_finite v then Printf.sprintf "%.1f" v else "-" in
        Buffer.add_string b
          (Printf.sprintf "  wait: p50 %s  p95 %s  util %s\n" (f r.H.wait_p50) (f r.H.wait_p95)
             (f r.H.utilization));
        (match r.H.wall with
        | Some w ->
          Buffer.add_string b
            (Printf.sprintf "  wall: %.1fs  %.0f jobs/s  rss %s MB\n" w.H.elapsed_s w.H.jobs_per_s
               (match w.H.rss_mb with Some v -> Printf.sprintf "%.1f" v | None -> "-"))
        | None -> ());
        let spark label xs =
          if List.exists Float.is_finite xs then
            Buffer.add_string b
              (Printf.sprintf "  %-7s %s\n" label
                 (Resa_stats.Stats.sparkline ~width:hist_cap (List.rev xs)))
        in
        spark "live" lives;
        spark "jobs/s" rates)
      (List.rev !order);
    if !malformed > 0 then
      Buffer.add_string b (Printf.sprintf "(%d malformed line%s skipped)\n" !malformed
        (if !malformed = 1 then "" else "s"));
    Buffer.contents b
  in
  let tty = Unix.isatty Unix.stdout in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         (match H.parse_line line with
         | Ok row -> observe row
         | Error _ -> incr malformed);
         if tty then begin
           (* Home + clear-to-end: flicker-free redraw. *)
           print_string "\027[H\027[J";
           print_string (render ());
           flush stdout
         end
       end
     done
   with End_of_file -> ());
  if path <> "-" then close_in ic;
  if not tty then print_string (render ())

let top_cmd =
  let path =
    Arg.(
      value
      & pos 0 string "-"
      & info [] ~docv:"FILE"
          ~doc:"Heartbeat JSONL stream from replay --heartbeat ('-' for stdin).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a heartbeat stream: per-run job counts, queue depth, wait \
          quantiles, timeline health and rate/occupancy sparklines")
    Term.(const top $ path)

(* ------------------------------------------------------------------ *)
(* benchdiff                                                           *)
(* ------------------------------------------------------------------ *)

let benchdiff parent_path change_path =
  (* Exit 2 on anything that is not a comparison: an unreadable or
     malformed file, or inputs that cannot be compared. *)
  let refuse fmt = Printf.ksprintf (fun msg -> prerr_endline ("benchdiff: " ^ msg); exit 2) fmt in
  let read parse path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> refuse "%s" msg
    | s -> ( match parse s with Ok v -> v | Error msg -> refuse "%s: %s" path msg)
  in
  let module B = Resa_obs.Benchdiff in
  let declared = read B.declared_of_string "BENCHMARK.json" in
  let parent = read B.results_of_string parent_path in
  let change = read B.results_of_string change_path in
  match B.compare declared ~parent ~change with
  | Error msg -> refuse "%s" msg
  | Ok report ->
    print_string (B.render report);
    if report.B.regressions > 0 then exit 1

let benchdiff_cmd =
  let path i docv doc = Arg.(required & pos i (some string) None & info [] ~docv ~doc) in
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:
         "Compare two benchmark/run.py BENCHMARK_results.json files metric by metric, by the \
          directions and bounds of ./BENCHMARK.json; exit 1 on a regression, 2 when the two \
          cannot be compared")
    Term.(
      const benchdiff
      $ path 0 "PARENT" "Results of the parent commit."
      $ path 1 "CHANGE" "Results of the change.")

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace m n max_runtime mean_gap overestimate seed =
  let rng = Prng.create ~seed in
  let entries = Resa_swf.Swf.generate ~overestimate rng ~m ~n ~max_runtime ~mean_gap in
  print_string
    (Resa_swf.Swf.to_string
       ~comments:
         [
           "synthetic SWF trace generated by resa";
           Printf.sprintf "MaxProcs: %d" m;
           Printf.sprintf "seed: %d, overestimate: %.2f" seed overestimate;
         ]
       entries)

let trace_cmd =
  let m = Arg.(value & opt int 64 & info [ "m" ] ~doc:"Number of machines.") in
  let n = Arg.(value & opt int 200 & info [ "n" ] ~doc:"Trace length.") in
  let max_runtime = Arg.(value & opt int 200 & info [ "max-runtime" ] ~doc:"Max runtime.") in
  let mean_gap = Arg.(value & opt float 5.0 & info [ "mean-gap" ] ~doc:"Mean inter-arrival gap.") in
  let overestimate =
    Arg.(value & opt float 1.0 & info [ "overestimate" ] ~doc:"Mean walltime overestimation (>= 1).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Emit a synthetic Standard Workload Format trace")
    Term.(const trace $ m $ n $ max_runtime $ mean_gap $ overestimate $ seed_arg)

(* ------------------------------------------------------------------ *)
(* info                                                                *)
(* ------------------------------------------------------------------ *)

let info_main path =
  let inst = read_instance path in
  Format.printf "%a@." Instance.pp inst;
  Printf.printf "total work:        %d processor-units\n" (Instance.total_work inst);
  Printf.printf "pmax / qmax:       %d / %d\n" (Instance.pmax inst) (Instance.qmax inst);
  Printf.printf "peak blocked:      %d of %d processors\n" (Instance.umax inst) (Instance.m inst);
  Printf.printf "reservation horizon: %d\n" (Instance.horizon inst);
  (match Instance.alpha_interval inst with
  | Some (lo, hi) -> Printf.printf "alpha-restricted for alpha in [%.3f, %.3f]\n" lo hi
  | None -> print_endline "not alpha-restricted for any alpha");
  Printf.printf "lower bounds:      work=%d fit=%d serial=%d -> best=%d\n"
    (Resa_exact.Lower_bounds.work_bound inst)
    (Resa_exact.Lower_bounds.fit_bound inst)
    (Resa_exact.Lower_bounds.serial_bound inst)
    (Resa_exact.Lower_bounds.best inst);
  let horizon = max 1 (max (Instance.horizon inst) (Resa_exact.Lower_bounds.best inst)) in
  print_endline "availability profile:";
  print_string (Gantt.render_profile ~width:70 ~height:8 (Instance.availability inst) ~hi:horizon)

let info_cmd =
  let path = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Instance file ('-' for stdin).") in
  Cmd.v (Cmd.info "info" ~doc:"Summarise an instance file") Term.(const info_main $ path)

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)
(* ------------------------------------------------------------------ *)

let bounds alphas =
  Printf.printf "%8s %12s %8s %8s\n" "alpha" "2/a(upper)" "B1" "B2";
  List.iter
    (fun (a, ub, b1, b2) -> Printf.printf "%8.3f %12.3f %8.3f %8.3f\n" a ub b1 b2)
    (Resa_analysis.Ratio_bounds.figure4_rows ~alphas)

let bounds_cmd =
  let alphas =
    Arg.(
      value
      & opt (list float) [ 0.25; 0.33; 0.5; 0.66; 0.75; 1.0 ]
      & info [ "alphas" ] ~doc:"Comma-separated alpha values.")
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Print the Figure 4 bound curves")
    Term.(const bounds $ alphas)

let () =
  let doc = "scheduling with reservations: algorithms, bounds and simulator" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "resa" ~version:"1.0.0" ~doc)
          [
            generate_cmd;
            solve_cmd;
            replay_cmd;
            explain_cmd;
            top_cmd;
            benchdiff_cmd;
            trace_cmd;
            bounds_cmd;
            info_cmd;
          ]))
