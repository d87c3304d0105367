open Resa_core
open Resa_swf

let sample_line = "1 0 5 100 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1"

(* [Swf.scan] on one line: its 18 fields, [None] for a blank or comment
   line, or its error message. *)
let scan_line line =
  let b = Bytes.of_string line and fields = Array.make 18 0 in
  match Swf.scan b ~pos:0 ~stop:(Bytes.length b) fields with
  | 0 -> Ok None
  | 18 -> Ok (Some fields)
  | r -> Error (Swf.scan_error b ~pos:0 ~stop:(Bytes.length b) r)

let fields_of_entry (e : Swf.entry) =
  [|
    e.job_number; e.submit; e.wait; e.run; e.alloc_procs; e.avg_cpu; e.used_mem; e.req_procs;
    e.req_time; e.req_mem; e.status; e.user; e.group; e.app; e.queue; e.partition; e.preceding;
    e.think_time;
  |]

(* Entries read the way every trace is: written as SWF text and
   streamed. *)
let read ?keep_failed ~m entries =
  List.of_seq (Seq.of_dispenser (Swf_stream.of_string ?keep_failed ~m (Tutil.swf_text entries)))

let test_parse_line () =
  match scan_line sample_line with
  | Ok (Some f) ->
    Alcotest.(check int) "job number" 1 f.(0);
    Alcotest.(check int) "submit" 0 f.(1);
    Alcotest.(check int) "wait" 5 f.(2);
    Alcotest.(check int) "run" 100 f.(3);
    Alcotest.(check int) "req procs" 8 f.(7);
    Alcotest.(check int) "think time" (-1) f.(17)
  | Ok None -> Alcotest.fail "entry expected"
  | Error msg -> Alcotest.fail msg

let test_parse_comments_and_blanks () =
  (match scan_line "; UnixStartTime: 0" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment not skipped");
  (match scan_line "   " with Ok None -> () | _ -> Alcotest.fail "blank not skipped");
  let src = Swf_stream.of_string ~m:8 "; UnixStartTime: 0\n   \n\n" in
  Alcotest.(check bool) "no arrival" true (src () = None)

let test_parse_rejects_short_lines () =
  match scan_line "1 2 3" with
  | Error msg -> Alcotest.(check string) "cites the field count" "expected 18 fields, found 3" msg
  | Ok _ -> Alcotest.fail "short line accepted"

let test_parse_rejects_garbage () =
  match scan_line "1 0 5 abc 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1" with
  | Error msg -> Alcotest.(check string) "names the field" "field run: \"abc\" is not a number" msg
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_parse_accepts_float_fields () =
  match scan_line "1 0 5 100 8 12.5 -1 8 120 -1 1 3 1 1 1 1 -1 -1" with
  | Ok (Some f) -> Alcotest.(check int) "truncated" 12 f.(5)
  | _ -> Alcotest.fail "float field rejected"

let test_parse_crlf_line () =
  (* Windows-edited archives carry \r\n; the trailing \r used to glue onto
     the last field and break its numeric conversion. *)
  match scan_line (sample_line ^ "\r") with
  | Ok (Some f) ->
    Alcotest.(check int) "last field survives CRLF" (-1) f.(17);
    Alcotest.(check int) "run" 100 f.(3)
  | Ok None -> Alcotest.fail "entry expected"
  | Error msg -> Alcotest.fail msg

let test_parse_string_crlf () =
  let text = "; header\r\n" ^ sample_line ^ "\r\n\r\n" ^ sample_line ^ "\r\n" in
  let arrivals = List.of_seq (Seq.of_dispenser (Swf_stream.of_string ~m:8 text)) in
  Alcotest.(check int) "both entries read" 2 (List.length arrivals)

let test_parse_ceils_float_durations () =
  (* Archives report sub-second runtimes as floats. Truncation turned a
     0.9-second job into run = 0 — a phantom the reader then dropped.
     Durations must round up; the resource-usage fields still truncate. *)
  match scan_line "1 0 5 0.9 8 12.7 -1 8 10.2 -1 1 3 1 1 1 1 -1 -1" with
  | Ok (Some f) ->
    Alcotest.(check int) "run ceiled" 1 f.(3);
    Alcotest.(check int) "req_time ceiled" 11 f.(8);
    Alcotest.(check int) "avg_cpu still truncates" 12 f.(5)
  | Ok None -> Alcotest.fail "entry expected"
  | Error msg -> Alcotest.fail msg

let test_job_numbers_map () =
  let entry job_number status = { Swf.default with Swf.job_number; req_procs = 1; run = 5; status } in
  let entries = [ entry 17 1; entry 23 0; entry 42 1 ] in
  let numbers arrivals = List.map (fun (a : Swf_stream.arrival) -> a.job_number) arrivals in
  Alcotest.(check (list int)) "all kept" [ 17; 23; 42 ] (numbers (read entries ~m:4));
  let kept = read ~keep_failed:false entries ~m:4 in
  Alcotest.(check (list int)) "failed dropped" [ 17; 42 ] (numbers kept);
  (* Job numbers travel with ids renumbered over the kept entries. *)
  Alcotest.(check (list int)) "ids are indices" [ 0; 1 ]
    (List.map (fun (a : Swf_stream.arrival) -> Job.id a.job) kept)

let test_parse_string_line_numbers () =
  let text = "; header\n" ^ sample_line ^ "\nbad line\n" in
  match Swf_reference.drain (Swf_stream.of_string ~m:8 text) with
  | Error msg ->
    Alcotest.(check string) "line number cited" "line 3: expected 18 fields, found 2" msg
  | Ok _ -> Alcotest.fail "bad file accepted"

(* The writer's lines scan back to the entries' fields, comments skipped. *)
let scans_back entries text =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let scanned =
    List.filter_map
      (fun l -> match scan_line l with Ok f -> f | Error msg -> failwith msg)
      lines
  in
  scanned = List.map fields_of_entry entries

let test_round_trip () =
  let rng = Prng.create ~seed:41 in
  let entries =
    Tutil.synthetic_entries ~overestimate:2.0 rng ~m:32 ~n:50 ~max_runtime:500 ~mean_gap:4.0
  in
  let text = Tutil.swf_text ~comments:[ "synthetic" ] entries in
  Alcotest.(check bool) "entries scan back unchanged" true (scans_back entries text);
  Alcotest.(check int) "every entry kept" 50 (List.length (read entries ~m:32))

(* The archive writes -1 (or 0) for a runtime it does not know: such a row
   replays for its requested time, not as a 1-second job. *)
let test_stream_clamps () =
  let row run = { Swf.default with Swf.req_procs = 100; run; req_time = 70 } in
  match read [ row 0; row (-1); row 50 ] ~m:16 with
  | [ a; b; c ] ->
    Alcotest.(check int) "procs clamped to m" 16 (Job.q a.job);
    Alcotest.(check int) "submit" 0 a.submit;
    List.iter
      (fun (name, (x : Swf_stream.arrival)) ->
        Alcotest.(check int) (name ^ ": falls back to req_time") 70 (Job.p x.job);
        Alcotest.(check int) (name ^ ": estimate") 70 x.estimate)
      [ ("run 0", a); ("run -1", b) ];
    Alcotest.(check int) "known runtime kept" 50 (Job.p c.job);
    Alcotest.(check int) "its estimate is the request" 70 c.estimate
  | l -> Alcotest.failf "%d jobs, expected 3" (List.length l)

let test_stream_skips_phantoms () =
  (* Entries with neither a positive run nor a positive req_time carry no
     work (cancelled before start); they used to surface as phantom
     1-second jobs. Kept entries are renumbered consecutively. *)
  let worker run req_time = { Swf.default with Swf.req_procs = 2; run; req_time } in
  let entries = [ worker 10 (-1); worker 0 0; worker (-1) (-1); worker (-1) 7 ] in
  match read entries ~m:8 with
  | [ a; b ] ->
    Alcotest.(check int) "real job kept" 10 (Job.p a.job);
    Alcotest.(check int) "its estimate is its runtime" 10 a.estimate;
    Alcotest.(check int) "req_time fallback kept" 7 (Job.p b.job);
    Alcotest.(check int) "ids renumbered" 1 (Job.id b.job)
  | l -> Alcotest.failf "%d jobs, expected 2" (List.length l)

let test_keep_failed () =
  let entry status = { Swf.default with Swf.req_procs = 1; run = 5; status } in
  let entries = [ entry 1; entry 0; entry 5 ] in
  Alcotest.(check int) "failed kept by default" 3 (List.length (read entries ~m:4));
  Alcotest.(check int) "failed dropped on request" 2
    (List.length (read ~keep_failed:false entries ~m:4))

let test_generated_trace_drives_simulator () =
  let rng = Prng.create ~seed:42 in
  let entries =
    Tutil.synthetic_entries ~overestimate:2.0 rng ~m:16 ~n:30 ~max_runtime:100 ~mean_gap:5.0
  in
  let subs =
    List.map
      (fun (a : Swf_stream.arrival) ->
        Resa_sim.Simulator.{ job = a.job; submit = a.submit; estimate = a.estimate })
      (read entries ~m:16)
  in
  let _, records = Tutil.simulate ~policy:Resa_sim.Policy.easy ~m:16 subs in
  let inst, sched = Tutil.executed ~m:16 ~reservations:[] records in
  Tutil.check_feasible "SWF-driven simulation" inst sched

(* The writer inverts the reader: a streamed arrival written with
   [entry_of_arrival] and [to_line] reads back as itself, with and without
   walltime overestimation. *)
let prop_round_trip =
  Tutil.qcheck ~count:50 "synthetic |> write |> read is the identity" Tutil.seed_arb
    (fun seed ->
      List.for_all
        (fun overestimate ->
          let arrivals =
            List.of_seq
              (Seq.of_dispenser
                 (Swf_stream.synthetic ~overestimate (Prng.create ~seed) ~m:8 ~n:30
                    ~max_runtime:50 ~mean_gap:2.0))
          in
          read ~m:8 (List.map Swf.entry_of_arrival arrivals) = arrivals)
        [ 1.0; 3.0 ])

(* --- the reader against the split-based reference ------------------------ *)

(* Lines biased toward what the scanner special-cases: blanks of all three
   kinds, signs, floats, digit separators, hex, 19- and 20-digit integers
   (past the plain-decimal fast path), ';' in and out of column 0, and
   0–25 tokens around the 18 a line needs. *)
let gen_line =
  let open QCheck.Gen in
  let digits lo hi = string_size ~gen:(char_range '0' '9') (int_range lo hi) in
  let sign = frequencyl [ (3, ""); (1, "-") ] in
  let odd_char =
    frequency
      [ (6, char_range '0' '9'); (1, oneofl [ '-'; '+'; '.'; 'e'; '_'; 'x'; ';' ]) ]
  in
  let token =
    frequency
      [
        (12, map2 ( ^ ) sign (digits 1 18));
        (1, map2 ( ^ ) sign (digits 19 20));
        (3, string_size ~gen:odd_char (int_range 1 6));
        ( 1,
          oneofl
            [
              "nan"; "inf"; "-inf"; "0x1F"; "0b101"; "0o17"; "1e400"; "-0"; "+7"; "1_000"; "0.9";
              "-.5"; "-";
            ] );
      ]
  in
  let blanks lo hi = string_size ~gen:(oneofl [ ' '; ' '; '\t'; '\r' ]) (int_range lo hi) in
  let* n = frequency [ (1, int_range 0 17); (2, int_range 18 25) ] in
  let* toks = list_repeat n token and* seps = list_repeat n (blanks 1 3) in
  let* lead = blanks 0 2 and* trail = blanks 0 2 in
  let* comment = frequencyl [ (19, ""); (1, ";") ] in
  let body = List.mapi (fun i (sep, tok) -> if i = 0 then tok else sep ^ tok) (List.combine seps toks) in
  return (comment ^ lead ^ String.concat "" body ^ trail)

let arb_line = QCheck.make ~print:String.escaped gen_line

(* One line: the scanner's 18 fields, and the stream's arrival or error,
   against the reference's. *)
let prop_line_oracle =
  Tutil.qcheck ~count:2000 "stream = reference reader (lines)" arb_line (fun line ->
      scan_line line = Result.map (Option.map fields_of_entry) (Swf_reference.parse_line line)
      && Swf_reference.drain (Swf_stream.of_string ~m:64 line) = Swf_reference.read ~m:64 line)

(* Whole texts: the stream splits lines, keeps, converts and numbers jobs,
   and cites line numbers like the reference, with and without failed
   jobs. *)
let prop_text_oracle =
  let arb =
    QCheck.make ~print:String.escaped
      QCheck.Gen.(map (String.concat "\n") (list_size (int_range 0 6) gen_line))
  in
  Tutil.qcheck ~count:500 "stream = reference reader (texts)" arb (fun text ->
      List.for_all
        (fun keep_failed ->
          Swf_reference.drain (Swf_stream.of_string ~keep_failed ~m:64 text)
          = Swf_reference.read ~keep_failed ~m:64 text)
        [ true; false ])

let suite =
  [
    Alcotest.test_case "parse a standard line" `Quick test_parse_line;
    Alcotest.test_case "comments and blanks skipped" `Quick test_parse_comments_and_blanks;
    Alcotest.test_case "short lines rejected" `Quick test_parse_rejects_short_lines;
    Alcotest.test_case "non-numeric fields rejected" `Quick test_parse_rejects_garbage;
    Alcotest.test_case "float fields tolerated" `Quick test_parse_accepts_float_fields;
    Alcotest.test_case "CRLF line endings tolerated" `Quick test_parse_crlf_line;
    Alcotest.test_case "CRLF files parse whole" `Quick test_parse_string_crlf;
    Alcotest.test_case "float durations round up" `Quick test_parse_ceils_float_durations;
    Alcotest.test_case "job_numbers aligns with renumbered ids" `Quick test_job_numbers_map;
    Alcotest.test_case "errors cite line numbers" `Quick test_parse_string_line_numbers;
    Alcotest.test_case "writer/parser round trip" `Quick test_round_trip;
    Alcotest.test_case "stream clamps and falls back" `Quick test_stream_clamps;
    Alcotest.test_case "stream skips phantom entries" `Quick test_stream_skips_phantoms;
    Alcotest.test_case "keep_failed filters status 0" `Quick test_keep_failed;
    Alcotest.test_case "generated trace drives the simulator" `Quick test_generated_trace_drives_simulator;
    prop_round_trip;
    prop_line_oracle;
    prop_text_oracle;
  ]
