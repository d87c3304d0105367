(* Reference SWF reader, independent of [Swf.scan] and
   [Swf.arrival_of_fields]: the split-based line parser the library used
   before its in-place scanner, kept verbatim, and the conversion rule
   stated on its own. The stream-versus-reference properties in
   [test_swf.ml] and [test_stream.ml] compare [Swf_stream] against it. *)

open Resa_core
open Resa_swf

let field_names =
  [|
    "job_number"; "submit"; "wait"; "run"; "alloc_procs"; "avg_cpu"; "used_mem"; "req_procs";
    "req_time"; "req_mem"; "status"; "user"; "group"; "app"; "queue"; "partition"; "preceding";
    "think_time";
  |]

let is_blank line = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line

let parse_line line : (Swf.entry option, string) result =
  if is_blank line then Ok None
  else if String.length line > 0 && line.[0] = ';' then Ok None
  else begin
    let tokens =
      (* '\r' joins the separators so CRLF traces parse: otherwise the final
         field of every line would arrive as e.g. "18\r" and fail numeric
         conversion. *)
      String.split_on_char ' '
        (String.map (fun c -> if c = '\t' || c = '\r' then ' ' else c) line)
      |> List.filter (fun s -> s <> "")
    in
    if List.length tokens < 18 then
      Error (Printf.sprintf "expected 18 fields, found %d" (List.length tokens))
    else begin
      let values = Array.make 18 0 in
      let bad = ref None in
      List.iteri
        (fun i tok ->
          if i < 18 && !bad = None then
            match int_of_string_opt tok with
            | Some v -> values.(i) <- v
            | None ->
              (* The archive stores a few fields (e.g. average CPU) as
                 floats; accept them. Durations round {e up}: truncating a
                 0.9-second runtime to 0 would turn a job that occupied the
                 machine into a no-work entry that [carries_work] drops. *)
              (match float_of_string_opt tok with
              | Some f ->
                values.(i) <- (if i = 3 || i = 8 then int_of_float (Float.ceil f) else int_of_float f)
              | None -> bad := Some (Printf.sprintf "field %s: %S is not a number" field_names.(i) tok)))
        tokens;
      match !bad with
      | Some msg -> Error msg
      | None ->
        Ok
          (Some
             {
               Swf.job_number = values.(0);
               submit = values.(1);
               wait = values.(2);
               run = values.(3);
               alloc_procs = values.(4);
               avg_cpu = values.(5);
               used_mem = values.(6);
               req_procs = values.(7);
               req_time = values.(8);
               req_mem = values.(9);
               status = values.(10);
               user = values.(11);
               group = values.(12);
               app = values.(13);
               queue = values.(14);
               partition = values.(15);
               preceding = values.(16);
               think_time = values.(17);
             })
    end
  end

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some e) -> go (lineno + 1) (e :: acc) rest
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 [] lines

(* The conversion rule. An entry carries work if its runtime or its
   request is positive (cancelled jobs carry neither); failed jobs
   (status 0) are kept unless [keep_failed] is false. A kept entry runs
   for its runtime, or for its request when the runtime is unknown
   (run <= 0), and at least 1; it is [req_procs] wide ([alloc_procs] when
   that is unknown), clamped to [1, m]; a negative submit is 0; the
   estimate is the request, never below the runtime. Kept entries are
   numbered 0, 1, ... in file order. *)
type arrival = { job : Job.t; submit : int; estimate : int; job_number : int }

let convert ?(keep_failed = true) ~m entries =
  let kept (e : Swf.entry) = (e.run > 0 || e.req_time > 0) && (keep_failed || e.status <> 0) in
  List.filter kept entries
  |> List.mapi (fun id (e : Swf.entry) ->
         let p = if e.run > 0 then e.run else max 1 e.req_time in
         let q = if e.req_procs > 0 then e.req_procs else e.alloc_procs in
         {
           job = Job.make ~id ~p ~q:(min m (max 1 q));
           submit = max 0 e.submit;
           estimate = max p e.req_time;
           job_number = e.job_number;
         })

let read ?keep_failed ~m text = Result.map (convert ?keep_failed ~m) (parse_string text)

(* A stream drained into the reference's terms: its arrivals, or its
   [Parse_error] rendered as the reference renders an error. *)
let drain (src : Swf_stream.t) =
  let rec go acc =
    match src () with
    | None -> Ok (List.rev acc)
    | Some (a : Swf_stream.arrival) ->
      go ({ job = a.job; submit = a.submit; estimate = a.estimate; job_number = a.job_number }
          :: acc)
    | exception Swf_stream.Parse_error { line; msg } ->
      Error (Printf.sprintf "line %d: %s" line msg)
  in
  go []
