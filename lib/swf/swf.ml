open Resa_core
open Resa_gen

type arrival = { job : Job.t; submit : int; estimate : int; job_number : int }

type entry = {
  job_number : int;
  submit : int;
  wait : int;
  run : int;
  alloc_procs : int;
  avg_cpu : int;
  used_mem : int;
  req_procs : int;
  req_time : int;
  req_mem : int;
  status : int;
  user : int;
  group : int;
  app : int;
  queue : int;
  partition : int;
  preceding : int;
  think_time : int;
}

let default =
  {
    job_number = 0;
    submit = 0;
    wait = -1;
    run = -1;
    alloc_procs = -1;
    avg_cpu = -1;
    used_mem = -1;
    req_procs = -1;
    req_time = -1;
    req_mem = -1;
    status = -1;
    user = -1;
    group = -1;
    app = -1;
    queue = -1;
    partition = -1;
    preceding = -1;
    think_time = -1;
  }

(* --- the line scanner -------------------------------------------------------

   The tokenizer behind [Swf_stream], which runs it in place over its read
   block. Tokens are maximal runs of anything but the blanks ' ', '\t' and
   '\r' ('\r' is a blank so CRLF traces parse). A plain decimal token — an
   optional '-' and 1–18 digits, which cannot overflow — is converted while
   it is scanned; any other token takes the slow path below on a
   substring. *)

let is_blank c = c = ' ' || c = '\t' || c = '\r'
let is_digit c = c >= '0' && c <= '9'

(* The archive stores a few fields (e.g. average CPU) as floats; accept
   them. Durations (fields 4 and 9) round {e up}: truncating a 0.9-second
   runtime to 0 would turn a job that occupied the machine into a no-work
   entry that [keep_fields] drops. *)
let convert_slow i tok =
  match int_of_string_opt tok with
  | Some _ as v -> v
  | None -> (
    match float_of_string_opt tok with
    | Some f -> Some (if i = 3 || i = 8 then int_of_float (Float.ceil f) else int_of_float f)
    | None -> None)

let rec token_end b i stop =
  if i < stop && not (is_blank (Bytes.unsafe_get b i)) then token_end b (i + 1) stop else i

(* Returns the token count when it is below 18 (0: blank, or a comment
   line, which starts with ';' in column 0), 18 when [fields] holds the
   line, and [-(k + 1)] when field [k] is the first of the 18 that is not
   a number. Tokens after the 18th are not looked at. *)
let scan b ~pos ~stop fields =
  if pos < stop && Bytes.unsafe_get b pos = ';' then 0
  else begin
    let n = ref 0 and bad = ref (-1) and i = ref pos in
    while !n < 18 && !i < stop do
      let c = Bytes.unsafe_get b !i in
      if is_blank c then incr i
      else begin
        let start = !i in
        let digits = if c = '-' then start + 1 else start in
        let j = ref digits and v = ref 0 in
        while !j < stop && is_digit (Bytes.unsafe_get b !j) do
          v := (10 * !v) + (Char.code (Bytes.unsafe_get b !j) - 48);
          incr j
        done;
        let stop_tok = token_end b !j stop in
        if !bad < 0 then begin
          let nd = !j - digits in
          if stop_tok = !j && nd >= 1 && nd <= 18 then
            fields.(!n) <- (if c = '-' then - !v else !v)
          else
            match convert_slow !n (Bytes.sub_string b start (stop_tok - start)) with
            | Some v -> fields.(!n) <- v
            | None -> bad := !n
        end;
        incr n;
        i := stop_tok
      end
    done;
    if !n < 18 || !bad < 0 then !n else -(!bad + 1)
  end

let field_names =
  [|
    "job_number"; "submit"; "wait"; "run"; "alloc_procs"; "avg_cpu"; "used_mem"; "req_procs";
    "req_time"; "req_mem"; "status"; "user"; "group"; "app"; "queue"; "partition"; "preceding";
    "think_time";
  |]

let scan_error b ~pos ~stop r =
  if r > 0 then Printf.sprintf "expected 18 fields, found %d" r
  else begin
    (* Field [k] is the first bad one: find its token again. *)
    let k = -r - 1 in
    let rec nth i k =
      if is_blank (Bytes.get b i) then nth (i + 1) k
      else if k = 0 then Bytes.sub_string b i (token_end b i stop - i)
      else nth (token_end b i stop) (k - 1)
    in
    Printf.sprintf "field %s: %S is not a number" field_names.(k) (nth pos k)
  end

let to_line e =
  Printf.sprintf "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d" e.job_number e.submit
    e.wait e.run e.alloc_procs e.avg_cpu e.used_mem e.req_procs e.req_time e.req_mem e.status
    e.user e.group e.app e.queue e.partition e.preceding e.think_time

let to_string ?(comments = []) entries =
  let buf = Buffer.create 1024 in
  List.iter (fun c -> Buffer.add_string buf ("; " ^ c ^ "\n")) comments;
  List.iter
    (fun e ->
      Buffer.add_string buf (to_line e);
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

(* --- the conversion rule, on bare fields -------------------------------------

   [Swf_stream] applies these to the field array [scan] wrote: no per-line
   record. Entries with neither a positive runtime nor a positive request
   carry no work at all (jobs cancelled before starting, archive status 0/5
   stubs) and are dropped; converting them used to fabricate phantom
   1-second jobs. A kept entry's runtime is [run], or [req_time] when the
   archive does not know the runtime ([run <= 0]). *)

let keep_fields ~keep_failed f =
  (f.(3) > 0 || f.(8) > 0) && (keep_failed || f.(10) <> 0)

let arrival_of_fields ~m ~id f : arrival =
  let run = f.(3) and req_procs = f.(7) and req_time = f.(8) in
  let p = max 1 (if run > 0 then run else req_time) in
  {
    job = Job.make ~id ~p ~q:(max 1 (min m (if req_procs > 0 then req_procs else f.(4))));
    submit = max 0 f.(1);
    estimate = max p req_time;
    job_number = f.(0);
  }

let generate ?(overestimate = 1.0) rng ~m ~n ~max_runtime ~mean_gap =
  if overestimate < 1.0 then invalid_arg "Swf.generate: overestimate must be >= 1.0";
  let inst = Random_inst.cluster_workload rng ~m ~n ~max_runtime in
  let arrivals = Arrivals.poisson rng ~n ~mean_gap in
  List.init n (fun i ->
      let j = Instance.job inst i in
      let req_time =
        if overestimate <= 1.0 then Job.p j
        else
          (* Factor uniform in [1, 2*overestimate - 1]: mean = overestimate. *)
          let f = 1.0 +. Prng.float rng ~bound:(2.0 *. (overestimate -. 1.0)) in
          max (Job.p j) (int_of_float (f *. float_of_int (Job.p j)))
      in
      {
        default with
        job_number = i + 1;
        submit = arrivals.(i);
        run = Job.p j;
        req_time;
        req_procs = Job.q j;
        alloc_procs = Job.q j;
        status = 1;
        user = 1 + (i mod 13);
      })
