(* Reference SWF line parser: the split-based tokenizer [Swf.parse_line]
   used before the in-place scanner, kept verbatim as the oracle of the
   scanner's differential property in [test_swf.ml]. *)

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
