(* Benchmark harness: regenerates every figure of the paper (FIG1-FIG4),
   the supplementary validation tables (T1-T5), the alpha-cap ablation, and
   Bechamel microbenchmarks. `dune exec bench/main.exe` prints everything;
   pass experiment names (fig1 fig3 t2 perf timeline ...) to run a subset.

   Flags:
     --jobs N     executor pool size (overrides RESA_DOMAINS; default:
                  Domain.recommended_domain_count, capped at 8)
     --small      reduced problem sizes for the scaling sweep (CI smoke)

   Machine-readable performance numbers come from the replay benchmark,
   benchmark/run.py, not from these tables. *)

open Resa_bench

let registry =
  [
    ("fig1", Experiments.fig1);
    ("fig2", Experiments.fig2);
    ("fig3", Experiments.fig3);
    ("fig4", Experiments.fig4);
    ("t1", Experiments.t1);
    ("t2", Experiments.t2);
    ("t3", Experiments.t3);
    ("t4", Experiments.t4);
    ("t5", Experiments.t5);
    ("ablation", Experiments.ablation_alpha_cap);
    ("perf", Perf.run);
    ("scaling", Perf.scaling);
    ("timeline", Perf.timeline_ops);
    ("sim", Perf.sim_scaling);
    ("bnb", Bnb_bench.run);
  ]

let usage () =
  Printf.eprintf "usage: main.exe [--jobs N] [--small] [experiment ...]\n";
  Printf.eprintf "available experiments: %s\n" (String.concat " " (List.map fst registry));
  exit 1

let () =
  let rec parse names = function
    | [] -> List.rev names
    | "--jobs" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 ->
        Resa_par.set_domains n;
        parse names rest
      | _ ->
        Printf.eprintf "--jobs expects a positive integer, got %S\n" v;
        exit 1)
    | "--small" :: rest ->
      Perf.small := true;
      parse names rest
    | "--jobs" :: [] -> usage ()
    | name :: rest -> parse (name :: names) rest
  in
  let names = parse [] (List.tl (Array.to_list Sys.argv)) in
  (* No names: every experiment in the registry's order, but for scaling,
     which perf ends with. *)
  let names =
    if names = [] then List.filter (( <> ) "scaling") (List.map fst registry) else names
  in
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) registry with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst registry));
        exit 1)
    names
