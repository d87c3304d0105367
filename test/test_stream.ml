(* Streaming replay vs the materialising paths: the constant-memory SWF
   reader, the streaming simulator and the incremental metrics must each be
   observationally identical to their batch counterparts — same entries,
   byte-identical event traces, bit-identical summaries. *)

open Resa_core
open Resa_swf
open Resa_sim

(* --- helpers ------------------------------------------------------------ *)

let policies =
  [ Policy.fcfs; Policy.easy; Policy.conservative; Policy.aggressive ]

let synthetic_text seed ~n =
  let rng = Prng.create ~seed in
  Tutil.swf_text ~comments:[ "oracle" ]
    (Tutil.synthetic_entries ~overestimate:2.0 rng ~m:32 ~n ~max_runtime:200 ~mean_gap:6.0)

let drain src =
  let rec go acc = match src () with None -> List.rev acc | Some a -> go (a :: acc) in
  go []

let to_sim (a : Swf_stream.arrival) =
  Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate }

let feed arrivals =
  let rest = ref arrivals in
  fun () ->
    match !rest with
    | [] -> None
    | a :: tl ->
      rest := tl;
      Some (to_sim a)

(* --- reader: stream vs the split-based reference ------------------------- *)

let stream_matches_reference keep_failed seed =
  let text = synthetic_text seed ~n:25 in
  match Swf_reference.read ~keep_failed ~m:32 text with
  | Error _ -> false
  | Ok reference as r ->
    List.length reference = 25
    && Swf_reference.drain (Swf_stream.of_string ~keep_failed ~m:32 text) = r

let prop_reader_oracle =
  Tutil.qcheck ~count:200 "of_string = reference on traces" Tutil.seed_arb
    (stream_matches_reference true)

let prop_reader_oracle_filtered =
  Tutil.qcheck ~count:100 "reader oracle with keep_failed:false" Tutil.seed_arb
    (stream_matches_reference false)

let test_stream_parse_error_line () =
  let text = "; header\n" ^ "1 0 5 100 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1" ^ "\nbad line\n" in
  let src = Swf_stream.of_string ~m:8 text in
  (match src () with Some _ -> () | None -> Alcotest.fail "first entry expected");
  match src () with
  | exception Swf_stream.Parse_error { line; _ } ->
    Alcotest.(check int) "line number" 3 line
  | _ -> Alcotest.fail "Parse_error expected"

let test_stream_file_roundtrip () =
  let text = synthetic_text 7 ~n:20 in
  let path = Filename.temp_file "resa_stream" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
      let from_file = Swf_stream.with_file ~m:32 path drain in
      let from_string = drain (Swf_stream.of_string ~m:32 text) in
      Alcotest.(check int) "same length" (List.length from_string) (List.length from_file);
      if from_file <> from_string then Alcotest.fail "file and string streams differ")

(* --- the file reader at its block boundaries ------------------------------ *)

let with_temp_file text f =
  let path = Filename.temp_file "resa_stream" ".swf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      f path)

(* [with_file] on [text] must yield the reference's arrivals, or fail on
   the line the reference cites, with its message. *)
let check_file name text =
  let from_file =
    with_temp_file text (fun path -> Swf_stream.with_file ~m:32 path Swf_reference.drain)
  in
  match (from_file, Swf_reference.read ~m:32 text) with
  | Ok a, Ok b ->
    Alcotest.(check int) (name ^ ": jobs") (List.length b) (List.length a);
    if a <> b then Alcotest.failf "%s: file stream differs from the reference" name
  | Error a, Error b -> Alcotest.(check string) (name ^ ": error") b a
  | Ok _, Error b ->
    Alcotest.failf "%s: file stream accepted what the reference rejects (%s)" name b
  | Error a, Ok _ ->
    Alcotest.failf "%s: file stream rejected what the reference accepts (%s)" name a

let block = 65536

(* A comment line that ends at byte [upto - 1], so the next line starts at
   byte [upto]. *)
let pad_to upto = ";" ^ String.make (upto - 2) 'x' ^ "\n"

let sample_lines n =
  let rng = Prng.create ~seed:3 in
  List.map Swf.to_line
    (Tutil.synthetic_entries ~overestimate:2.0 rng ~m:32 ~n ~max_runtime:200 ~mean_gap:6.0)

let test_file_block_boundaries () =
  let lines = sample_lines 40 in
  let body = String.concat "\n" lines ^ "\n" in
  let first = List.hd lines in
  let l = String.length first in
  (* The first data line straddles the boundary, or its '\n' is the last
     byte of the block, or the first byte of the next. *)
  List.iter
    (fun start ->
      check_file (Printf.sprintf "line at %d" start) (pad_to start ^ body))
    [ block - 20; block - l - 1; block - l; block - 1; block; block + 1 ];
  (* Lines longer than the block force it to grow: a 200 KiB comment, and
     a data line spread over 200 KiB of blanks. *)
  check_file "200 KiB comment" (pad_to (200 * 1024) ^ body);
  let wide = String.concat (String.make (12 * 1024) ' ') (String.split_on_char ' ' first) in
  check_file "200 KiB data line" (body ^ wide ^ "\n" ^ body);
  check_file "no final newline" (String.concat "\n" lines);
  check_file "no final newline past a block" (pad_to (block + 5) ^ String.concat "\n" lines);
  check_file "empty file" "";
  check_file "comments only" "; one\n;two\n\n; three";
  check_file "CRLF" (String.concat "\r\n" ("; header" :: lines) ^ "\r\n");
  check_file "CRLF across the boundary"
    (pad_to (block - 10) ^ String.concat "\r\n" lines ^ "\r\n");
  (* A bad line that starts right after a refill: the error cites it. *)
  List.iter
    (fun start ->
      check_file (Printf.sprintf "bad line at %d" start)
        (pad_to start ^ "1 2 3 oops\n" ^ body))
    [ block - 5; block; block + 1 ];
  check_file "bad field after the boundary"
    (pad_to (block - 30) ^ body ^ "1 0 5 abc 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1\n")

(* A kept line allocates its job, its arrival and the option around it:
   11 words. 20 leaves room for the block's refills, not for a per-line
   string or token list. *)
let test_file_reader_allocation () =
  let n = 20_000 in
  let text = String.concat "\n" ("; 20k jobs" :: sample_lines n) ^ "\n" in
  with_temp_file text (fun path ->
      Swf_stream.with_file ~m:32 path (fun src ->
          let w0 = Gc.minor_words () in
          let rec count k = match src () with None -> k | Some _ -> count (k + 1) in
          let jobs = count 0 in
          let words = (Gc.minor_words () -. w0) /. float_of_int jobs in
          Alcotest.(check int) "jobs" n jobs;
          if words > 20.0 then Alcotest.failf "%.1f minor words per job (budget 20)" words))

let test_synthetic_shape () =
  let gen () =
    let rng = Prng.create ~seed:11 in
    drain (Swf_stream.synthetic ~overestimate:2.0 rng ~m:64 ~n:500 ~max_runtime:300 ~mean_gap:4.0)
  in
  let xs = gen () in
  Alcotest.(check int) "exactly n arrivals" 500 (List.length xs);
  if gen () <> xs then Alcotest.fail "same seed must replay identically";
  let last = ref 0 in
  List.iteri
    (fun i (a : Swf_stream.arrival) ->
      if Job.id a.job <> i then Alcotest.failf "id %d at position %d" (Job.id a.job) i;
      if a.submit < !last then Alcotest.fail "submits must be non-decreasing";
      last := a.submit;
      if a.estimate < Job.p a.job then Alcotest.fail "estimate below runtime";
      if Job.q a.job < 1 || Job.q a.job > 64 then Alcotest.fail "width out of range")
    xs

(* A pull allocates the job, its arrival and the option, 11 words, and
   boxes no float: the clock lives in an all-float record and the two
   float draws are computed in place. A boxed float costs 2 words, so one
   slipping back in shows as 13. *)
let test_synthetic_allocation () =
  let n = 20_000 in
  let src =
    Swf_stream.synthetic ~overestimate:2.0 (Prng.create ~seed:4242) ~m:64 ~n ~max_runtime:400
      ~mean_gap:40.0
  in
  let w0 = Gc.minor_words () in
  let rec count k = match src () with None -> k | Some _ -> count (k + 1) in
  let jobs = count 0 in
  let words = (Gc.minor_words () -. w0) /. float_of_int jobs in
  Alcotest.(check int) "jobs" n jobs;
  if words > 12.0 then Alcotest.failf "%.2f minor words per job (budget 12)" words

(* --- simulator: run_stream vs the batch run on estimated arrivals -------- *)

let arrivals_of_seed seed ~n =
  let rng = Prng.create ~seed in
  drain (Swf_stream.synthetic ~overestimate:2.0 rng ~m:16 ~n ~max_runtime:60 ~mean_gap:3.0)

let engines_agree ~gc_every policy seed =
  let arrivals = arrivals_of_seed seed ~n:30 in
  let obs_b, obs_b_events = Tutil.recorder () in
  let trace = Simulator.run ~obs:obs_b ~policy ~m:16 (List.map to_sim arrivals) in
  let obs_s, obs_s_events = Tutil.recorder () in
  let records = ref [] in
  let stats =
    Simulator.run_stream ~obs:obs_s ~gc_every ~policy ~m:16
      ~on_record:(fun r -> records := r :: !records)
      (feed arrivals)
  in
  let by_id =
    List.sort (fun (a : Simulator.record) b -> compare (Job.id a.job) (Job.id b.job))
  in
  stats.Simulator.jobs = List.length arrivals
  && stats.Simulator.makespan = trace.Simulator.makespan
  && by_id !records = by_id trace.Simulator.records
  && obs_s_events () = obs_b_events ()

let engine_props =
  List.concat_map
    (fun (policy : Policy.t) ->
      [
        Tutil.qcheck ~count:150
          (Printf.sprintf "run_stream = run_estimated (%s)" policy.Policy.name)
          Tutil.seed_arb
          (engines_agree ~gc_every:0 policy);
        Tutil.qcheck ~count:60
          (Printf.sprintf "gc_every:1 is invisible (%s)" policy.Policy.name)
          Tutil.seed_arb
          (engines_agree ~gc_every:1 policy);
      ])
    policies

let test_stream_validates_arrivals () =
  let job = Job.make ~id:0 ~p:5 ~q:2 in
  let once a =
    let sent = ref false in
    fun () -> if !sent then None else (sent := true; Some a)
  in
  let run a = ignore (Simulator.run_stream ~policy:Policy.fcfs ~m:4 (once a)) in
  Alcotest.check_raises "negative submit" (Invalid_argument "Simulator: negative submit time")
    (fun () -> run Simulator.{ job; submit = -1; estimate = 5 });
  Alcotest.check_raises "estimate below runtime"
    (Invalid_argument "Simulator: estimate below the actual runtime") (fun () ->
      run Simulator.{ job; submit = 0; estimate = 4 });
  let wide = Job.make ~id:0 ~p:5 ~q:9 in
  Alcotest.check_raises "too wide" (Invalid_argument "Simulator: job wider than the machine")
    (fun () -> run Simulator.{ job = wide; submit = 0; estimate = 5 })

(* --- reserved replays: pinned trace digests ------------------------------ *)

(* One reserved instance (32 processors, 40 jobs, reservations over 3000
   time units) fed over time: bursts of arrivals separated by long gaps,
   so the queue empties between bursts and for the whole reserved tail
   after the last job. Walltimes overestimate, so completions release
   capacity early. The run is traced and sampled (every 10 events, plus
   the closing snapshot); the digest covers the JSONL events and the
   heartbeat rows, in that order. *)
let reserved_replay_digest (policy : Policy.t) =
  let inst =
    Resa_gen.Random_inst.alpha_restricted (Prng.create ~seed:19) ~m:32 ~n:40 ~alpha:0.5
      ~pmax:40 ~n_reservations:30 ~horizon:3000 ()
  in
  let jobs = Instance.jobs inst and reservations = Array.to_list (Instance.reservations inst) in
  let rng = Prng.create ~seed:23 in
  let submit = ref 0 in
  let arrivals =
    Array.map
      (fun job ->
        submit :=
          !submit
          + (if Prng.int rng ~bound:6 = 0 then Prng.int_incl rng ~lo:150 ~hi:300
             else Prng.int rng ~bound:12);
        Simulator.
          { job; submit = !submit; estimate = Job.p job + Prng.int rng ~bound:(Job.p job + 1) })
      jobs
  in
  let i = ref 0 in
  let next () =
    if !i >= Array.length arrivals then None
    else begin
      incr i;
      Some arrivals.(!i - 1)
    end
  in
  let obs, obs_events = Tutil.recorder () in
  let ms = Metrics.Stream.create ~m:32 ~reservations () in
  let rows = ref [] in
  let on_heartbeat hb = rows := Heartbeat.make ~stream:ms hb :: !rows in
  ignore
    (Simulator.run_stream ~obs ~heartbeat_every:10 ~on_heartbeat
       ~on_record:(Metrics.Stream.observe ms) ~policy ~m:32 ~reservations next
      : Simulator.stream_stats);
  let text =
    Tutil.written (fun oc ->
        List.iter (Resa_obs.Trace.output oc) (obs_events ());
        List.iter (Heartbeat.write oc) (List.rev !rows))
  in
  Digest.to_hex (Digest.string text)

(* Any change to the engine, its tracing or its heartbeat sampler that
   moves one event or one row of these runs shows here. *)
let pinned_reserved_digests =
  [
    ("FCFS", "74d350e892cca760b5a2aae4d78bd1ee");
    ("EASY", "6acad936a7a41f628d44b863f07d612d");
    ("CONS", "600d34a64fbc27baecbb8d5b3dd36503");
    ("LSRC", "230cfed669c3cf710df5d2cd264b8941");
  ]

let test_reserved_digests () =
  List.iter
    (fun (policy : Policy.t) ->
      Alcotest.(check string)
        (policy.name ^ " traced reserved replay")
        (List.assoc policy.name pinned_reserved_digests)
        (reserved_replay_digest policy))
    policies

(* --- metrics: Stream vs summarize --------------------------------------- *)

let bits = Int64.bits_of_float

let summaries_identical (a : Metrics.summary) (b : Metrics.summary) =
  a.n = b.n && a.makespan = b.makespan && a.max_wait = b.max_wait
  && bits a.mean_wait = bits b.mean_wait
  && bits a.mean_slowdown = bits b.mean_slowdown
  && bits a.mean_bounded_slowdown = bits b.mean_bounded_slowdown
  && bits a.utilization = bits b.utilization

let metrics_agree seed =
  let arrivals = arrivals_of_seed seed ~n:40 in
  let ms = Metrics.Stream.create ~m:16 ~reservations:[] () in
  ignore
    (Simulator.run_stream ~policy:Policy.easy ~m:16
       ~on_record:(Metrics.Stream.observe ms) (feed arrivals)
      : Simulator.stream_stats);
  let trace = Simulator.run ~policy:Policy.easy ~m:16 (List.map to_sim arrivals) in
  summaries_identical (Metrics.Stream.summary ms) (Metrics.summarize trace)

let prop_metrics_bitwise =
  Tutil.qcheck ~count:200 "Metrics.Stream = summarize, bit for bit" Tutil.seed_arb metrics_agree

let test_stream_metrics_empty () =
  let ms = Metrics.Stream.create ~m:4 ~reservations:[] () in
  Alcotest.(check int) "no observations" 0 (Metrics.Stream.count ms);
  let s = Metrics.Stream.summary ms in
  Alcotest.(check int) "degenerate n" 0 s.Metrics.n;
  Alcotest.(check bool) "nan utilization" true (Float.is_nan s.Metrics.utilization);
  Alcotest.(check bool) "nan percentile" true (Float.is_nan (Metrics.Stream.wait_p50 ms))

(* --- queue: Jobq vs a list model ---------------------------------------- *)

(* Appends and kills against a list model, as the simulator drives the
   queue: each entry's position is remembered at its append, killed by that
   position, and kept current through the compaction reports. After every
   step the live entries must be the model's, in order, each at its
   remembered position with its id, estimate, width and tag, and the
   compactions must have moved no more entries than were appended. *)
let jobq_matches_model seed =
  let rng = Prng.create ~seed in
  let q = Jobq.create () in
  (* (id, estimate, width, tag) *)
  let model = ref [] in
  let pos = Hashtbl.create 64 in
  let moves = ref 0 and appends = ref 0 in
  let moved tag p =
    incr moves;
    Hashtbl.replace pos tag p
  in
  let tag_of (_, _, _, tag) = tag in
  let ok = ref true in
  for i = 0 to 400 do
    (* Append-heavy phases then kill-heavy ones, so the queue both grows
       and drains through several compactions. *)
    let append_weight = if i / 100 mod 2 = 0 then 3 else 1 in
    (match Prng.int rng ~bound:4 with
    | r when r < append_weight || !model = [] ->
      let e = ((7 * i) + 3, Prng.int_incl rng ~lo:1 ~hi:1000, Prng.int_incl rng ~lo:1 ~hi:64, i) in
      let id, estimate, width, tag = e in
      Hashtbl.replace pos i (Jobq.append q ~id ~estimate ~width ~tag);
      incr appends;
      model := !model @ [ e ]
    | _ ->
      let tag = tag_of (List.nth !model (Prng.int rng ~bound:(List.length !model))) in
      Jobq.kill q (Hashtbl.find pos tag) ~moved;
      Hashtbl.remove pos tag;
      model := List.filter (fun e -> tag_of e <> tag) !model);
    let ids = Jobq.ids q and ests = Jobq.estimates q and widths = Jobq.widths q in
    let tags = Jobq.tags q in
    let rec live i acc =
      if i >= Jobq.stop q then List.rev acc
      else if tags.(i) < 0 then live (i + 1) acc
      else live (i + 1) (((ids.(i), ests.(i), widths.(i), tags.(i)), i) :: acc)
    in
    let entries = live (Jobq.first q) [] in
    if Jobq.length q <> List.length !model || List.length entries <> List.length !model then
      ok := false
    else
      List.iter2
        (fun e (e', p) -> if not (e = e' && Hashtbl.find pos (tag_of e) = p) then ok := false)
        !model entries;
    if (match !model with [] -> false | e :: _ -> Jobq.first q <> Hashtbl.find pos (tag_of e))
    then ok := false;
    if
      Resa_oracles.Jobq_view.to_list q
      <> List.map (fun (id, p, q, _) -> Job.make ~id ~p ~q) !model
    then ok := false;
    if !moves > !appends then ok := false
  done;
  !ok

let prop_jobq_model =
  Tutil.qcheck ~count:300 "Jobq behaves as a tagged FIFO array" Tutil.seed_arb
    jobq_matches_model

(* The engine's id table against [Hashtbl]. Three pools of ids: 200 that
   share their low bits (a stride of 1024); 36 colliding ones,
   [(k lsl 40) + c] for c < 6, which the table's multiplicative mix sends
   to one home cell per c at every size below 256, so removals run
   backward shifts through long interleaved clusters; and [min_int], the
   table's free-cell marker. Four phases: mixed operations on the strided
   ids, delete-heavy ones on the colliding ids, growth with every binding
   live (the table doubles under them), and a delete-heavy drain of
   everything. Each operation's id is checked right after it, the
   colliding pool after every operation of its phase, and every pool at
   the end of each phase. *)
let ids_match_model seed =
  let rng = Prng.create ~seed in
  let t = Ids.create 4 and model = Hashtbl.create 16 in
  let strided = Array.init 200 (fun k -> 1024 * k) in
  let colliding = Array.init 36 (fun i -> ((i / 6) lsl 40) + (i mod 6)) in
  let pool = Array.concat [ strided; colliding; [| min_int |] ] in
  let ok = ref true in
  let check id =
    let got = match Ids.find t id with v -> Some v | exception Not_found -> None in
    if got <> Hashtbl.find_opt model id then ok := false
  in
  let add id =
    let fresh = not (Hashtbl.mem model id) in
    if Ids.add t id (id + 1) <> fresh then ok := false;
    if fresh then Hashtbl.replace model id (id + 1);
    check id
  in
  let remove id =
    Ids.remove t id;
    Hashtbl.remove model id;
    check id
  in
  let pick a = a.(Prng.int rng ~bound:(Array.length a)) in
  for _ = 1 to 600 do
    let id = pick strided in
    if Prng.int rng ~bound:3 < 2 then add id else remove id
  done;
  Array.iter check pool;
  for _ = 1 to 600 do
    let id = pick colliding in
    if Prng.int rng ~bound:3 = 0 then add id else remove id;
    Array.iter check colliding
  done;
  Array.iter check pool;
  Array.iter (fun id -> if Prng.int rng ~bound:4 > 0 then add id) pool;
  Array.iter check pool;
  for _ = 1 to 2000 do
    let id = pick pool in
    if Prng.int rng ~bound:4 = 0 then add id else remove id
  done;
  Array.iter check pool;
  !ok

let prop_ids_model =
  Tutil.qcheck ~count:100 "Ids agrees with Hashtbl on strided ids" Tutil.seed_arb ids_match_model

let suite =
  [
    prop_reader_oracle;
    prop_reader_oracle_filtered;
    Alcotest.test_case "parse errors carry line numbers" `Quick test_stream_parse_error_line;
    Alcotest.test_case "file and string streams agree" `Quick test_stream_file_roundtrip;
    Alcotest.test_case "file reader at block boundaries" `Quick test_file_block_boundaries;
    Alcotest.test_case "file reader allocates <= 20 words/job" `Quick test_file_reader_allocation;
    Alcotest.test_case "synthetic stream shape and determinism" `Quick test_synthetic_shape;
    Alcotest.test_case "bad arrivals rejected" `Quick test_stream_validates_arrivals;
    Alcotest.test_case "empty stream metrics are degenerate" `Quick test_stream_metrics_empty;
    Alcotest.test_case "traced reserved replays match pinned digests" `Quick
      test_reserved_digests;
    prop_metrics_bitwise;
    prop_jobq_model;
    prop_ids_model;
    Alcotest.test_case "synthetic stream allocates <= 12 words/job" `Quick
      test_synthetic_allocation;
  ]
  @ engine_props
