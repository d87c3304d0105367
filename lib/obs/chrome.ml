(* Chrome trace-event JSON (the `chrome://tracing` / Perfetto format).

   We emit only complete events (ph = "X") plus process/thread name
   metadata. Slices are grouped into processes (one per simulation run, one
   for the executor) and tracks within a process (one per cluster
   processor, one per pool domain); pids/tids are assigned in order of
   first appearance so the export is deterministic for a deterministic
   slice list. *)

type slice = {
  process : string;
  track : string;
  name : string;
  cat : string;
  ts_us : int;
  dur_us : int;
  args : (string * string) list;
}

let to_json_value slices =
  let open Jsonu in
  let pids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let tids : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  let meta = ref [] in
  let next_pid = ref 0 in
  let pid_of process =
    match Hashtbl.find_opt pids process with
    | Some pid -> pid
    | None ->
      incr next_pid;
      let pid = !next_pid in
      Hashtbl.add pids process pid;
      meta :=
        Obj
          [
            ("name", Str "process_name"); ("ph", Str "M"); ("pid", Num (float_of_int pid));
            ("tid", Num 0.); ("args", Obj [ ("name", Str process) ]);
          ]
        :: !meta;
      pid
  in
  (* tids count per process so Perfetto sorts tracks in appearance order. *)
  let next_tid : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let tid_of process track =
    let pid = pid_of process in
    match Hashtbl.find_opt tids (process, track) with
    | Some tid -> tid
    | None ->
      let tid = 1 + Option.value ~default:0 (Hashtbl.find_opt next_tid pid) in
      Hashtbl.replace next_tid pid tid;
      Hashtbl.add tids (process, track) tid;
      meta :=
        Obj
          [
            ("name", Str "thread_name"); ("ph", Str "M"); ("pid", Num (float_of_int pid));
            ("tid", Num (float_of_int tid)); ("args", Obj [ ("name", Str track) ]);
          ]
        :: !meta;
      tid
  in
  let events =
    List.map
      (fun s ->
        let pid = pid_of s.process in
        let tid = tid_of s.process s.track in
        Obj
          [
            ("name", Str s.name);
            ("cat", Str (if s.cat = "" then "sim" else s.cat));
            ("ph", Str "X");
            ("ts", Num (float_of_int s.ts_us));
            ("dur", Num (float_of_int s.dur_us));
            ("pid", Num (float_of_int pid));
            ("tid", Num (float_of_int tid));
            ("args", Obj (List.map (fun (k, v) -> (k, Str v)) s.args));
          ])
      slices
  in
  Obj
    [
      ("traceEvents", List (List.rev !meta @ events));
      ("displayTimeUnit", Str "ms");
    ]

let write oc slices =
  output_string oc (Jsonu.to_string (to_json_value slices));
  output_char oc '\n'

let of_spans ?(process = "executor") spans =
  match spans with
  | [] -> []
  | first :: _ ->
    (* Rebase on the earliest span so the timeline starts near 0. *)
    let t0 =
      List.fold_left (fun acc (s : Prof.span) -> min acc s.start_ns) first.Prof.start_ns spans
    in
    List.map
      (fun (s : Prof.span) ->
        {
          process;
          track = Printf.sprintf "domain %d" s.domain;
          name = s.name;
          cat = s.cat;
          ts_us = (s.start_ns - t0) / 1000;
          dur_us = max 1 (s.dur_ns / 1000);
          args = [];
        })
      spans
