open Resa_core
open Resa_swf

let sample_line = "1 0 5 100 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1"

let test_parse_line () =
  match Swf.parse_line sample_line with
  | Ok (Some e) ->
    Alcotest.(check int) "job number" 1 e.Swf.job_number;
    Alcotest.(check int) "submit" 0 e.Swf.submit;
    Alcotest.(check int) "wait" 5 e.Swf.wait;
    Alcotest.(check int) "run" 100 e.Swf.run;
    Alcotest.(check int) "req procs" 8 e.Swf.req_procs;
    Alcotest.(check int) "think time" (-1) e.Swf.think_time
  | Ok None -> Alcotest.fail "entry expected"
  | Error msg -> Alcotest.fail msg

let test_parse_comments_and_blanks () =
  (match Swf.parse_line "; UnixStartTime: 0" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment not skipped");
  match Swf.parse_line "   " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank not skipped"

let test_parse_rejects_short_lines () =
  match Swf.parse_line "1 2 3" with
  | Error msg -> Alcotest.(check bool) "mentions field count" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "short line accepted"

let test_parse_rejects_garbage () =
  match Swf.parse_line "1 0 5 abc 8 -1 -1 8 120 -1 1 3 1 1 1 1 -1 -1" with
  | Error msg -> Alcotest.(check bool) "names the field" true (String.length msg > 4)
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_parse_accepts_float_fields () =
  match Swf.parse_line "1 0 5 100 8 12.5 -1 8 120 -1 1 3 1 1 1 1 -1 -1" with
  | Ok (Some e) -> Alcotest.(check int) "truncated" 12 e.Swf.avg_cpu
  | _ -> Alcotest.fail "float field rejected"

let test_parse_crlf_line () =
  (* Windows-edited archives carry \r\n; the trailing \r used to glue onto
     the last field and break its numeric conversion. *)
  match Swf.parse_line (sample_line ^ "\r") with
  | Ok (Some e) ->
    Alcotest.(check int) "last field survives CRLF" (-1) e.Swf.think_time;
    Alcotest.(check int) "run" 100 e.Swf.run
  | Ok None -> Alcotest.fail "entry expected"
  | Error msg -> Alcotest.fail msg

let test_parse_string_crlf () =
  let text = "; header\r\n" ^ sample_line ^ "\r\n\r\n" ^ sample_line ^ "\r\n" in
  match Swf.parse_string text with
  | Ok entries -> Alcotest.(check int) "both entries parsed" 2 (List.length entries)
  | Error msg -> Alcotest.fail msg

let test_parse_ceils_float_durations () =
  (* Archives report sub-second runtimes as floats. Truncation turned a
     0.9-second job into run = 0 — a phantom that [keep] then dropped.
     Durations must round up; the resource-usage fields still truncate. *)
  match Swf.parse_line "1 0 5 0.9 8 12.7 -1 8 10.2 -1 1 3 1 1 1 1 -1 -1" with
  | Ok (Some e) ->
    Alcotest.(check int) "run ceiled" 1 e.Swf.run;
    Alcotest.(check int) "req_time ceiled" 11 e.Swf.req_time;
    Alcotest.(check int) "avg_cpu still truncates" 12 e.Swf.avg_cpu
  | Ok None -> Alcotest.fail "entry expected"
  | Error msg -> Alcotest.fail msg

let test_job_numbers_map () =
  let entry job_number status = { Swf.default with Swf.job_number; req_procs = 1; run = 5; status } in
  let entries = [ entry 17 1; entry 23 0; entry 42 1 ] in
  Alcotest.(check (array int)) "all kept" [| 17; 23; 42 |] (Swf.job_numbers entries);
  Alcotest.(check (array int)) "failed dropped" [| 17; 42 |]
    (Swf.job_numbers ~keep_failed:false entries);
  (* The array aligns with the renumbered ids of [to_estimated_workload]. *)
  let jobs = Swf.to_estimated_workload ~keep_failed:false entries ~m:4 in
  Alcotest.(check (list int)) "ids are indices" [ 0; 1 ]
    (List.map (fun (j, _, _) -> Job.id j) jobs)

let test_parse_string_line_numbers () =
  let text = "; header\n" ^ sample_line ^ "\nbad line\n" in
  match Swf.parse_string text with
  | Error msg -> Alcotest.(check bool) "line number cited" true (String.length msg > 7
                                                                && String.sub msg 0 6 = "line 3")
  | Ok _ -> Alcotest.fail "bad file accepted"

let test_round_trip () =
  let rng = Prng.create ~seed:41 in
  let entries = Swf.generate rng ~m:32 ~n:50 ~max_runtime:500 ~mean_gap:4.0 in
  let text = Swf.to_string ~comments:[ "synthetic" ] entries in
  match Swf.parse_string text with
  | Error msg -> Alcotest.fail msg
  | Ok entries' ->
    Alcotest.(check int) "count preserved" 50 (List.length entries');
    List.iter2
      (fun a b -> if a <> b then Alcotest.fail "entry changed in round trip")
      entries entries'

let test_to_workload_clamps () =
  let e = { Swf.default with Swf.req_procs = 100; run = 0; req_time = 7 } in
  match Swf.to_workload [ e ] ~m:16 with
  | [ (job, submit) ] ->
    Alcotest.(check int) "procs clamped to m" 16 (Job.q job);
    Alcotest.(check int) "falls back to req_time" 7 (Job.p job);
    Alcotest.(check int) "submit" 0 submit
  | _ -> Alcotest.fail "one job expected"

let test_to_workload_skips_phantoms () =
  (* Entries with neither a positive run nor a positive req_time carry no
     work (cancelled before start); they used to surface as phantom
     1-second jobs. Kept entries are renumbered consecutively. *)
  let worker run req_time = { Swf.default with Swf.req_procs = 2; run; req_time } in
  let entries = [ worker 10 (-1); worker 0 0; worker (-1) (-1); worker (-1) 7 ] in
  match Swf.to_workload entries ~m:8 with
  | [ (a, _); (b, _) ] ->
    Alcotest.(check int) "real job kept" 10 (Job.p a);
    Alcotest.(check int) "req_time fallback kept" 7 (Job.p b);
    Alcotest.(check int) "ids renumbered" 1 (Job.id b)
  | l -> Alcotest.fail (Printf.sprintf "%d jobs, expected 2" (List.length l))

let test_to_workload_keep_failed () =
  let entry status = { Swf.default with Swf.req_procs = 1; run = 5; status } in
  let entries = [ entry 1; entry 0; entry 5 ] in
  Alcotest.(check int) "failed kept by default" 3 (List.length (Swf.to_workload entries ~m:4));
  Alcotest.(check int) "failed dropped on request" 2
    (List.length (Swf.to_workload ~keep_failed:false entries ~m:4));
  Alcotest.(check int) "estimated workload filters too" 2
    (List.length (Swf.to_estimated_workload ~keep_failed:false entries ~m:4))

let test_of_workload_waits () =
  let job = Job.make ~id:0 ~p:10 ~q:4 in
  match Swf.of_workload [ (job, 3, 8) ] with
  | [ e ] ->
    Alcotest.(check int) "wait" 5 e.Swf.wait;
    Alcotest.(check int) "run" 10 e.Swf.run;
    Alcotest.(check int) "procs" 4 e.Swf.req_procs
  | _ -> Alcotest.fail "one entry expected"

let test_generated_trace_drives_simulator () =
  let rng = Prng.create ~seed:42 in
  let entries = Swf.generate rng ~m:16 ~n:30 ~max_runtime:100 ~mean_gap:5.0 in
  let subs =
    List.map
      (fun (job, submit) -> Resa_sim.Simulator.{ job; submit })
      (Swf.to_workload entries ~m:16)
  in
  let trace = Resa_sim.Simulator.run ~policy:Resa_sim.Policy.easy ~m:16 subs in
  let inst, sched = Resa_sim.Simulator.to_offline trace in
  Tutil.check_feasible "SWF-driven simulation" inst sched

let prop_round_trip =
  Tutil.qcheck ~count:50 "generate |> print |> parse is the identity" Tutil.seed_arb (fun seed ->
      let rng = Prng.create ~seed in
      let entries = Swf.generate rng ~m:8 ~n:10 ~max_runtime:50 ~mean_gap:2.0 in
      match Swf.parse_string (Swf.to_string entries) with
      | Ok entries' -> entries = entries'
      | Error _ -> false)

(* --- the scanner against the split-based reference ---------------------- *)

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

let prop_scanner_oracle =
  Tutil.qcheck ~count:2000 "parse_line = split-based reference" arb_line (fun line ->
      Swf.parse_line line = Swf_reference.parse_line line)

(* Whole texts: [parse_string] and the stream (over a string) split lines
   and cite line numbers like the reference. *)
let prop_text_oracle =
  let arb =
    QCheck.make ~print:String.escaped
      QCheck.Gen.(map (String.concat "\n") (list_size (int_range 0 6) gen_line))
  in
  Tutil.qcheck ~count:500 "parse_string and of_string = reference" arb (fun text ->
      let reference = Swf_reference.parse_string text in
      let streamed =
        let src = Swf_stream.of_string ~m:64 text in
        let rec go acc =
          match src () with
          | None -> Ok (List.rev acc)
          | Some (a : Swf_stream.arrival) -> go ((a.job, a.submit, a.estimate) :: acc)
          | exception Swf_stream.Parse_error { line; msg } ->
            Error (Printf.sprintf "line %d: %s" line msg)
        in
        go []
      in
      Swf.parse_string text = reference
      && streamed = Result.map (fun es -> Swf.to_estimated_workload es ~m:64) reference)

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
    Alcotest.test_case "to_workload clamps and falls back" `Quick test_to_workload_clamps;
    Alcotest.test_case "to_workload skips phantom entries" `Quick test_to_workload_skips_phantoms;
    Alcotest.test_case "keep_failed filters status 0" `Quick test_to_workload_keep_failed;
    Alcotest.test_case "of_workload computes waits" `Quick test_of_workload_waits;
    Alcotest.test_case "generated trace drives the simulator" `Quick test_generated_trace_drives_simulator;
    prop_round_trip;
    prop_scanner_oracle;
    prop_text_oracle;
  ]
