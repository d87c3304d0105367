(* `resa explain`: replay a JSONL trace and reconstruct, per job, why it
   started when it did — submission, blocked episodes with their binding
   constraint, policy plans, the start provenance and the completion.

   Pure string processing over parsed events, so it can replay traces
   produced by any past run of any policy. Events are consumed as they
   come and each story is written out once rendered: what is kept is one
   story per job, not the trace and not the report. *)

type blocked = { reason : Trace.provenance; first : int; lo : int; hi : int; need : int; have : int; count : int }

type job_story = {
  id : int;
  mutable submit : int option;
  mutable p : int;
  mutable q : int;
  mutable blocked : blocked list; (* reverse order of first occurrence *)
  mutable planned : (int * int) list; (* (decision time, planned start), reverse *)
  mutable start : (int * int * Trace.provenance) option; (* time, wait, provenance *)
  mutable finish : int option;
}

type run_acc = {
  mutable jobs : job_story list; (* reverse first-appearance order *)
  by_id : (int, job_story) Hashtbl.t;
  mutable accepted : int;
  mutable rejected : int;
  mutable decisions : int;
  mutable wakes : int;
}

let story acc id =
  match Hashtbl.find_opt acc.by_id id with
  | Some s -> s
  | None ->
    let s =
      { id; submit = None; p = 0; q = 0; blocked = []; planned = []; start = None; finish = None }
    in
    Hashtbl.add acc.by_id id s;
    acc.jobs <- s :: acc.jobs;
    s

let feed acc = function
  | Trace.Job_submit { time; job; p; q } ->
    let s = story acc job in
    s.submit <- Some time;
    s.p <- p;
    s.q <- q
  | Trace.Job_start { time; job; wait; provenance } ->
    (story acc job).start <- Some (time, wait, provenance)
  | Trace.Job_finish { time; job } -> (story acc job).finish <- Some time
  | Trace.Head_blocked { time; job; reason; lo; hi; need; have; _ } ->
    let s = story acc job in
    (match List.find_opt (fun b -> b.reason = reason) s.blocked with
    | Some b ->
      s.blocked <-
        { b with count = b.count + 1 } :: List.filter (fun x -> x.reason <> reason) s.blocked
    | None -> s.blocked <- { reason; first = time; lo; hi; need; have; count = 1 } :: s.blocked)
  | Trace.Planned { time; job; at; _ } ->
    let s = story acc job in
    (* Keep only plan changes: consecutive identical plans collapse. *)
    (match s.planned with
    | (_, prev) :: _ when prev = at -> ()
    | _ -> s.planned <- (time, at) :: s.planned)
  | Trace.Decision _ -> acc.decisions <- acc.decisions + 1
  | Trace.Resv_accept _ -> acc.accepted <- acc.accepted + 1
  | Trace.Resv_reject _ -> acc.rejected <- acc.rejected + 1
  | Trace.Sim_wake _ -> acc.wakes <- acc.wakes + 1

let render_story b s =
  Buffer.add_string b (Printf.sprintf "job %d" s.id);
  if s.p > 0 || s.q > 0 then Buffer.add_string b (Printf.sprintf " (p=%d, q=%d)" s.p s.q);
  Buffer.add_string b ":";
  (match s.submit with
  | Some t -> Buffer.add_string b (Printf.sprintf " submitted t=%d" t)
  | None -> Buffer.add_string b " (submission not traced)");
  List.iter
    (fun blk ->
      Buffer.add_string b
        (Printf.sprintf "; %s x%d (first t=%d, window [%d,%d) need %d have %d)"
           (Trace.provenance_to_string blk.reason)
           blk.count blk.first blk.lo blk.hi blk.need blk.have))
    (List.rev s.blocked);
  List.iter
    (fun (t, at) -> Buffer.add_string b (Printf.sprintf "; planned at t=%d for t=%d" t at))
    (List.rev s.planned);
  (match s.start with
  | Some (t, wait, prov) ->
    Buffer.add_string b
      (Printf.sprintf "; started t=%d (wait %d, %s)" t wait (Trace.provenance_to_string prov))
  | None -> Buffer.add_string b "; never started");
  (match s.finish with
  | Some t -> Buffer.add_string b (Printf.sprintf "; finished t=%d" t)
  | None -> ());
  Buffer.add_char b '\n'

let render oc events =
  let runs : (string, run_acc) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  let run_acc name =
    match Hashtbl.find_opt runs name with
    | Some acc -> acc
    | None ->
      let acc =
        { jobs = []; by_id = Hashtbl.create 64; accepted = 0; rejected = 0; decisions = 0; wakes = 0 }
      in
      Hashtbl.add runs name acc;
      order := name :: !order;
      acc
  in
  Seq.iter (fun (run, ev) -> feed (run_acc (Option.value run ~default:"run")) ev) events;
  let b = Buffer.create 4096 in
  List.iter
    (fun name ->
      let acc = Hashtbl.find runs name in
      Buffer.add_string b (Printf.sprintf "== %s ==\n" name);
      Buffer.add_string b
        (Printf.sprintf "decisions: %d, forced wake-ups: %d" acc.decisions acc.wakes);
      if acc.accepted + acc.rejected > 0 then
        Buffer.add_string b
          (Printf.sprintf ", reservations: %d accepted / %d rejected" acc.accepted acc.rejected);
      Buffer.add_char b '\n';
      let jobs = List.sort (fun a b -> compare a.id b.id) acc.jobs in
      List.iter
        (fun s ->
          render_story b s;
          Buffer.output_buffer oc b;
          Buffer.clear b)
        jobs;
      Buffer.add_char b '\n')
    (List.rev !order);
  Buffer.output_buffer oc b
