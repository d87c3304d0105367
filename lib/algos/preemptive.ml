open Resa_flow
open Resa_core

type t = {
  makespan : int;
  intervals : (int * int) list array;
}

let require_sequential inst =
  Array.iter
    (fun j -> if Job.q j <> 1 then invalid_arg "Preemptive: jobs must have q = 1")
    (Instance.jobs inst)

(* Constant-availability segments of [0, deadline). *)
let segments inst ~deadline =
  let avail = Instance.availability inst in
  Profile.fold_segments avail ~init:[] ~f:(fun acc ~lo ~hi ~v ->
      let hi = match hi with None -> deadline | Some h -> min h deadline in
      if lo < deadline && lo < hi && v > 0 then (lo, hi, v) :: acc else acc)
  |> List.rev

(* Jobs -> segments transportation network. Returns (graph, per job the list
   of (edge handle, segment)). *)
let build_network inst ~deadline =
  let n = Instance.n_jobs inst in
  let segs = Array.of_list (segments inst ~deadline) in
  let k = Array.length segs in
  let source = 0 and sink = 1 in
  let job_node i = 2 + i in
  let seg_node s = 2 + n + s in
  let g = Maxflow.create ~n_nodes:(2 + n + k) in
  let job_edges = Array.make n [] in
  for i = 0 to n - 1 do
    ignore (Maxflow.add_edge g ~src:source ~dst:(job_node i) ~cap:(Job.p (Instance.job inst i)));
    Array.iteri
      (fun s (lo, hi, _) ->
        let e = Maxflow.add_edge g ~src:(job_node i) ~dst:(seg_node s) ~cap:(hi - lo) in
        job_edges.(i) <- (e, s) :: job_edges.(i))
      segs
  done;
  Array.iteri
    (fun s (lo, hi, v) -> ignore (Maxflow.add_edge g ~src:(seg_node s) ~dst:sink ~cap:(v * (hi - lo))))
    segs;
  (g, segs, job_edges, source, sink)

let total_work inst = Instance.total_work inst

let feasible_by inst ~deadline =
  require_sequential inst;
  if deadline < 0 then invalid_arg "Preemptive.feasible_by: negative deadline";
  let w = total_work inst in
  if w = 0 then true
  else begin
    let g, _, _, source, sink = build_network inst ~deadline in
    Maxflow.max_flow g ~source ~sink = w
  end

let schmidt_feasible inst ~deadline =
  require_sequential inst;
  if deadline < 0 then invalid_arg "Preemptive.schmidt_feasible: negative deadline";
  let avail = Instance.availability inst in
  let ps =
    Array.map Job.p (Instance.jobs inst) |> fun a ->
    Array.sort (fun x y -> Int.compare y x) a;
    a
  in
  let n = Array.length ps in
  (* PC_k(T) = integral of min(m(t), k) over [0, T). *)
  let pc k =
    if deadline = 0 then 0
    else
      Profile.fold_segments avail ~init:0 ~f:(fun acc ~lo ~hi ~v ->
          let hi = match hi with None -> deadline | Some h -> min h deadline in
          if lo < deadline && lo < hi then acc + (min (max v 0) k * (hi - lo)) else acc)
  in
  let rec check k prefix =
    if k > n then true
    else begin
      let prefix = prefix + ps.(k - 1) in
      prefix <= pc k && check (k + 1) prefix
    end
  in
  check 1 0

(* McNaughton wrap-around inside one segment [lo, hi) with [cap] machines:
   job i receives units.(i) <= hi - lo; fill machine timelines in sequence,
   splitting at the segment end. *)
let wraparound ~lo ~hi units out =
  let len = hi - lo in
  let offset = ref 0 in
  List.iter
    (fun (i, u) ->
      if u > 0 then begin
        let o = !offset mod len in
        if o + u <= len then out.(i) <- (lo + o, lo + o + u) :: out.(i)
        else begin
          out.(i) <- (lo + o, hi) :: out.(i);
          out.(i) <- (lo, lo + o + u - len) :: out.(i)
        end;
        offset := !offset + u
      end)
    units

let extract_schedule inst ~deadline =
  let n = Instance.n_jobs inst in
  let g, segs, job_edges, source, sink = build_network inst ~deadline in
  let flow = Maxflow.max_flow g ~source ~sink in
  if flow <> total_work inst then None
  else begin
    let out = Array.make n [] in
    Array.iteri
      (fun s (lo, hi, _) ->
        let units = ref [] in
        for i = 0 to n - 1 do
          List.iter
            (fun (e, s') -> if s' = s then units := (i, Maxflow.flow_on g e) :: !units)
            job_edges.(i)
        done;
        wraparound ~lo ~hi (List.rev !units) out)
      segs;
    Some (Array.map List.rev out)
  end

let makespan_of intervals =
  Array.fold_left
    (fun acc l -> List.fold_left (fun acc (_, hi) -> max acc hi) acc l)
    0 intervals

let optimal inst =
  require_sequential inst;
  let n = Instance.n_jobs inst in
  if n = 0 then { makespan = 0; intervals = [||] }
  else begin
    (* Binary search the smallest feasible deadline. *)
    let lo = ref 1 in
    let hi = ref (Instance.horizon inst + total_work inst) in
    assert (feasible_by inst ~deadline:!hi);
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if feasible_by inst ~deadline:mid then hi := mid else lo := mid + 1
    done;
    match extract_schedule inst ~deadline:!lo with
    | Some intervals ->
      (* The flow may finish jobs before the deadline; report actual end. *)
      { makespan = makespan_of intervals; intervals }
    | None -> assert false
  end

let validate inst t =
  require_sequential inst;
  let n = Instance.n_jobs inst in
  Array.length t.intervals = n
  && Array.for_all
       (fun l -> List.for_all (fun (lo, hi) -> 0 <= lo && lo < hi) l)
       t.intervals
  &&
  (* Each job: total service p_j, no self-overlap. *)
  let self_ok i =
    let l = List.sort compare t.intervals.(i) in
    let rec disjoint = function
      | (_, h1) :: ((l2, _) :: _ as rest) -> h1 <= l2 && disjoint rest
      | _ -> true
    in
    disjoint l
    && List.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 l = Job.p (Instance.job inst i)
  in
  let rec all i = i >= n || (self_ok i && all (i + 1)) in
  all 0
  &&
  (* Global capacity: number of running jobs <= availability everywhere. *)
  let deltas = ref [] in
  Array.iter
    (fun l -> List.iter (fun (lo, hi) -> deltas := (lo, 1) :: (hi, -1) :: !deltas) l)
    t.intervals;
  let usage = Profile.of_events ~base:0 !deltas in
  Profile.min_value (Profile.sub (Instance.availability inst) usage) >= 0
  && makespan_of t.intervals <= t.makespan
