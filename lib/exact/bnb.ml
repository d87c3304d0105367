open Resa_core
open Resa_algos

type result = {
  makespan : int;
  schedule : Schedule.t;
  optimal : bool;
  nodes : int;
}

(* Registry counters (RESA_METRICS): search effort and pruning mix. *)
let c_nodes = Resa_obs.Metrics.counter "bnb.nodes"
let c_prunes_area = Resa_obs.Metrics.counter "bnb.prunes_area"
let c_prunes_twin = Resa_obs.Metrics.counter "bnb.prunes_twin"
let c_prunes_fit = Resa_obs.Metrics.counter "bnb.prunes_fit"

let incumbent_schedule inst =
  (* Cheap good starting incumbent: best of a few list heuristics. *)
  let candidates =
    List.map (fun p -> Lsrc.run ~priority:p inst) Priority.standard
    @ [ Backfill.conservative inst; Backfill.easy inst ]
  in
  match candidates with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun (bs, bm) s ->
        let c = Schedule.makespan inst s in
        if c < bm then (s, c) else (bs, bm))
      (first, Schedule.makespan inst first)
      rest

(* ------------------------------------------------------------------ *)
(* Speculative timeline-native solver.                                 *)
(*                                                                     *)
(* One mutable Timeline per search worker; a checkpoint is opened      *)
(* before every placement trial and rolled back on backtrack, so a     *)
(* node costs two in-place changes instead of a persistent-profile     *)
(* copy. The candidate decision-time set is a merged scan of the       *)
(* static availability breakpoints and a sorted array of live          *)
(* completion times maintained incrementally across the DFS.           *)
(*                                                                     *)
(* Parallel root splitting: the first two levels of the tree are       *)
(* expanded sequentially into subtree roots, which are then solved as  *)
(* pool tasks in fixed-size waves. The shared incumbent lives in an    *)
(* Atomic read by every worker for pruning, but it is published only   *)
(* at wave boundaries — within a wave every subtree prunes against the *)
(* same frozen bound regardless of execution interleaving. That, plus  *)
(* index-ordered merging and per-wave budget allocation computed from  *)
(* completed waves only, makes the full result record (makespan,       *)
(* schedule, optimal, nodes) bit-identical at any pool size.           *)
(* ------------------------------------------------------------------ *)

type search = {
  n : int;
  durations : int array;
  widths : int array;
  areas : int array;
  avail_bps : int array; (* sorted, starts with 0; shared, read-only *)
  twin_before : int array; (* shared, read-only *)
  free : Timeline.t;
  placed : bool array;
  starts : int array;
  comps : int array; (* completion times of placed jobs, ascending *)
  mutable n_comps : int;
  mutable nodes : int;
  mutable budget : int;
  mutable local_best : int; (* recording threshold; starts at the wave bound *)
  mutable best_starts : int array option;
  shared_best : int Atomic.t; (* frozen during a wave; read for pruning *)
}

(* Pruning bound: the worker's own best, tightened by the shared incumbent
   (equal to the wave bound while a wave is in flight). *)
let bnd s =
  let g = Atomic.get s.shared_best in
  if g < s.local_best then g else s.local_best

(* Index of the first element >= x in a.(0..len-1), ascending. *)
let lower_bound a len x =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let comps_insert s t =
  let i = ref s.n_comps in
  while !i > 0 && s.comps.(!i - 1) > t do
    s.comps.(!i) <- s.comps.(!i - 1);
    decr i
  done;
  s.comps.(!i) <- t;
  s.n_comps <- s.n_comps + 1

let comps_remove s t =
  let i = ref 0 in
  while s.comps.(!i) <> t do
    incr i
  done;
  for j = !i to s.n_comps - 2 do
    s.comps.(j) <- s.comps.(j + 1)
  done;
  s.n_comps <- s.n_comps - 1

(* A subtree root produced by the sequential expansion phase: the placed
   prefix in placement order plus the node's running aggregates. *)
type branch = { trail : (int * int) array; b_cmax : int; b_rem : int }

(* Chronological DFS on the live timeline. Returns false iff the node
   budget ran out (the caller unwinds — no exceptions, so every
   checkpoint is paired with a rollback even on exhaustion). When
   [fdepth >= 0], nodes reached at that depth are recorded into [fsink]
   as subtree roots instead of being expanded (the expansion phase);
   [trail] then carries the (start, job) path to the current node. *)
let rec dfs s ~fdepth ~fsink ~trail depth t_prev i_prev cur_cmax rem_work =
  s.nodes <- s.nodes + 1;
  Resa_obs.Metrics.incr c_nodes;
  if s.nodes > s.budget then false
  else if depth = s.n then begin
    if cur_cmax < s.local_best then begin
      s.local_best <- cur_cmax;
      s.best_starts <- Some (Array.copy s.starts)
    end;
    true
  end
  else if depth = fdepth then begin
    fsink := { trail = Array.copy trail; b_cmax = cur_cmax; b_rem = rem_work } :: !fsink;
    true
  end
  else begin
    let b = bnd s in
    let area_lb =
      if rem_work = 0 then 0
      else Lower_bounds.min_time_with_area_tl ~cap:b s.free ~from:t_prev ~area:rem_work
    in
    if (if cur_cmax > area_lb then cur_cmax else area_lb) >= b then begin
      Resa_obs.Metrics.incr c_prunes_area;
      true
    end
    else begin
      (* Merged ascending scan of availability breakpoints and live
         completion times, restricted to [>= t_prev], skipping duplicates.
         Children restore [comps] before the scan resumes, so the indices
         stay valid across recursive calls. *)
      let min_q = ref max_int in
      for i = 0 to s.n - 1 do
        if (not s.placed.(i)) && s.widths.(i) < !min_q then min_q := s.widths.(i)
      done;
      let min_q = !min_q in
      let ok = ref true and stop = ref false in
      let na = Array.length s.avail_bps in
      let ia = ref (lower_bound s.avail_bps na t_prev)
      and ic = ref (lower_bound s.comps s.n_comps t_prev) in
      let last_t = ref min_int in
      while (not !stop) && !ok && (!ia < na || !ic < s.n_comps) do
        let t =
          if !ia < na && (!ic >= s.n_comps || s.avail_bps.(!ia) <= s.comps.(!ic)) then begin
            let t = s.avail_bps.(!ia) in
            incr ia;
            t
          end
          else begin
            let t = s.comps.(!ic) in
            incr ic;
            t
          end
        in
        (* Candidates are ascending, and every job has duration >= 1: once
           t >= bound no later start can improve on it. *)
        if t >= bnd s then stop := true
        else if t <> !last_t then begin
          last_t := t;
          try_jobs s ~fdepth ~fsink ~trail depth t_prev i_prev cur_cmax rem_work t min_q ok
        end
      done;
      !ok
    end
  end

and try_jobs s ~fdepth ~fsink ~trail depth t_prev i_prev cur_cmax rem_work t min_q ok =
  let first_i = if t = t_prev then i_prev + 1 else 0 in
  (* Capacity at the instant [t] bounds every window minimum from above:
     instants too narrow even for the narrowest unplaced job are dismissed
     with one point query, and jobs wider than it fail with one integer
     compare instead of a window query. Children roll the timeline back
     before the loop resumes, so one sample stays valid across the whole
     scan (same trick as Lsrc). *)
  let cap_now = Timeline.value_at s.free t in
  let i = ref (if cap_now < min_q then s.n else first_i) in
  while !ok && !i < s.n do
    let idx = !i in
    if not s.placed.(idx) then begin
      let tb = s.twin_before.(idx) in
      if tb >= 0 && not s.placed.(tb) then Resa_obs.Metrics.incr c_prunes_twin
      else begin
        let fin = t + s.durations.(idx) in
        if
          fin < bnd s
          && s.widths.(idx) <= cap_now
          && Timeline.min_on s.free ~lo:t ~hi:fin >= s.widths.(idx)
        then begin
          s.placed.(idx) <- true;
          s.starts.(idx) <- t;
          comps_insert s fin;
          if depth < Array.length trail then trail.(depth) <- (t, idx);
          let mark = Timeline.checkpoint s.free in
          Timeline.change s.free ~lo:t ~hi:fin ~delta:(-s.widths.(idx));
          let r =
            dfs s ~fdepth ~fsink ~trail (depth + 1) t idx
              (if cur_cmax > fin then cur_cmax else fin)
              (rem_work - s.areas.(idx))
          in
          Timeline.rollback s.free mark;
          comps_remove s fin;
          s.placed.(idx) <- false;
          s.starts.(idx) <- -1;
          if not r then ok := false
        end
      end
    end;
    incr i
  done

(* Pool-task shape: branches per task (one shared timeline, replayed under
   checkpoints) and tasks per wave (the shared incumbent is frozen within a
   wave, republished between waves). Both are fixed constants so the work
   decomposition — and hence the result — is independent of the pool size. *)
let block_size = 8
let wave_blocks = 8
let expand_depth = 2

let solve ?(node_limit = 2_000_000) inst =
  Resa_obs.Prof.with_span ~cat:"exact" "bnb.solve" @@ fun () ->
  let n = Instance.n_jobs inst in
  let avail = Instance.availability inst in
  let incumbent, incumbent_cmax = incumbent_schedule inst in
  let lb_root = Lower_bounds.best inst in
  if n = 0 || incumbent_cmax <= lb_root then
    (* Incumbent matches a certified lower bound: no search needed. *)
    { makespan = incumbent_cmax; schedule = incumbent; optimal = true; nodes = 0 }
  else begin
    let jobs = Instance.jobs inst in
    let durations = Array.map Job.p jobs in
    let widths = Array.map Job.q jobs in
    let areas = Array.map Job.area jobs in
    let avail_bps = Profile.breakpoints avail in
    (* Symmetry chain: twin_before.(i) is the closest earlier job with the
       same (p, q) — one hashtable pass instead of the O(n^2) scan. The
       chain transitively forces identical jobs to be placed in increasing
       index order (each link requires its predecessor), which is the same
       dominance rule with strictly stronger per-node pruning. *)
    let twin_before = Array.make n (-1) in
    let last_twin = Hashtbl.create (2 * n) in
    for i = 0 to n - 1 do
      let key = (durations.(i), widths.(i)) in
      (match Hashtbl.find_opt last_twin key with
      | Some k -> twin_before.(i) <- k
      | None -> ());
      Hashtbl.replace last_twin key i
    done;
    let shared_best = Atomic.make incumbent_cmax in
    let mk_state ~budget ~bound0 =
      {
        n;
        durations;
        widths;
        areas;
        avail_bps;
        twin_before;
        free = Timeline.of_profile avail;
        placed = Array.make n false;
        starts = Array.make n (-1);
        comps = Array.make n 0;
        n_comps = 0;
        nodes = 0;
        budget;
        local_best = bound0;
        best_starts = None;
        shared_best;
      }
    in
    (* Phase 1: sequential expansion of the first level(s) into subtree
       roots (deterministic DFS order). On breakpoint-rich instances the
       first level alone fans out into hundreds of roots, so the second
       level is expanded only when the first is too coarse to balance.
       Complete schedules met on the way (n <= expansion depth) are
       recorded directly. *)
    let expand dmax =
      let st = mk_state ~budget:node_limit ~bound0:incumbent_cmax in
      let fsink = ref [] in
      let trail = Array.make dmax (0, 0) in
      let ok = dfs st ~fdepth:dmax ~fsink ~trail 0 0 (-1) 0 (Instance.total_work inst) in
      (st, Array.of_list (List.rev !fsink), ok)
    in
    let e1, branches1, ok1 = expand 1 in
    let deepen = ok1 && n >= expand_depth && Array.length branches1 < 16 in
    let st0, branches, expansion_ok =
      if deepen then expand expand_depth else (e1, branches1, ok1)
    in
    let best_cmax = ref st0.local_best in
    let best_starts = ref st0.best_starts in
    let nodes_total = ref (if deepen then e1.nodes + st0.nodes else st0.nodes) in
    let complete = ref expansion_ok in
    Atomic.set shared_best !best_cmax;
    (* Phase 2: solve subtree roots in fixed-size blocks — one pool task
       per block, one timeline per task, branches within a block replayed
       under a checkpoint and rolled back between branches so the state
       (and its construction cost) is shared. Blocks are dispatched in
       fixed-size waves, the remaining node budget split evenly over the
       remaining branches each round. Branches that exhaust their slice
       are retried in later rounds with the (larger) per-branch share of
       whatever budget is left, so a lopsided tree still completes within
       the global limit. Block and wave shapes depend only on the branch
       list, never on the pool size. *)
    let certified = ref (!best_cmax <= lb_root) in
    let pending = ref (if expansion_ok then Array.to_list branches else []) in
    let solve_block ~bound0 ~q ~r (j0, bs) =
      let s = mk_state ~budget:0 ~bound0 in
      let incomplete = ref [] in
      Array.iteri
        (fun k b ->
          let budget = q + if j0 + k < r then 1 else 0 in
          if budget <= 0 then incomplete := b :: !incomplete
          else begin
            let mark = Timeline.checkpoint s.free in
            Array.iter
              (fun (t, i) ->
                s.placed.(i) <- true;
                s.starts.(i) <- t;
                comps_insert s (t + durations.(i));
                Timeline.change s.free ~lo:t ~hi:(t + durations.(i)) ~delta:(-widths.(i)))
              b.trail;
            let t_prev, i_prev = b.trail.(Array.length b.trail - 1) in
            (* Branch-entry fit bound against the live timeline: every
               unplaced job alone must still fit below the bound. *)
            let unplaced = ref [] in
            for i = n - 1 downto 0 do
              if not s.placed.(i) then unplaced := jobs.(i) :: !unplaced
            done;
            let fit_lb =
              Lower_bounds.fit_bound_tl s.free ~from:t_prev (Array.of_list !unplaced)
            in
            if (if b.b_cmax > fit_lb then b.b_cmax else fit_lb) >= bnd s then
              Resa_obs.Metrics.incr c_prunes_fit
            else begin
              s.budget <- s.nodes + budget;
              let okb =
                dfs s ~fdepth:(-1) ~fsink:(ref []) ~trail:[||] (Array.length b.trail)
                  t_prev i_prev b.b_cmax b.b_rem
              in
              if not okb then incomplete := b :: !incomplete
            end;
            Timeline.rollback s.free mark;
            Array.iter
              (fun (t, i) ->
                s.placed.(i) <- false;
                s.starts.(i) <- -1;
                comps_remove s (t + durations.(i)))
              b.trail
          end)
        bs;
      (s.local_best, s.best_starts, s.nodes, List.rev !incomplete)
    in
    while (not !certified) && !pending <> [] do
      let remaining = node_limit - !nodes_total in
      if remaining <= 0 then begin
        complete := false;
        pending := []
      end
      else begin
        let parr = Array.of_list !pending in
        let rem_branches = Array.length parr in
        let q = remaining / rem_branches and r = remaining mod rem_branches in
        let n_blocks = (rem_branches + block_size - 1) / block_size in
        let blocks =
          Array.init n_blocks (fun bi ->
              let j0 = bi * block_size in
              (j0, Array.sub parr j0 (min block_size (rem_branches - j0))))
        in
        let round_incomplete = ref [] in
        let wi = ref 0 in
        while !wi < n_blocks do
          if !certified then
            (* The optimum is certified: remaining branches need no search. *)
            wi := n_blocks
          else begin
            let hi = min n_blocks (!wi + wave_blocks) in
            let bound0 = !best_cmax in
            let results =
              Resa_par.parallel_map (solve_block ~bound0 ~q ~r) (Array.sub blocks !wi (hi - !wi))
            in
            Array.iter
              (fun (value, bstarts, bnodes, binc) ->
                nodes_total := !nodes_total + bnodes;
                List.iter (fun b -> round_incomplete := b :: !round_incomplete) binc;
                if value < !best_cmax then begin
                  best_cmax := value;
                  best_starts := bstarts
                end)
              results;
            (* Publish the wave's improvements: the next wave prunes
               against them, workers within a wave saw a frozen bound. *)
            Atomic.set shared_best !best_cmax;
            if !best_cmax <= lb_root then certified := true;
            wi := hi
          end
        done;
        let retry = List.rev !round_incomplete in
        (* Each round either certifies, consumes budget (every dispatched
           branch expands at least one node), or retires branches, so the
           loop terminates: remaining <= 0 above catches exhaustion. *)
        pending := if !certified then [] else retry
      end
    done;
    if (not !certified) && !pending <> [] then complete := false;
    let schedule =
      match !best_starts with Some st -> Schedule.make st | None -> incumbent
    in
    {
      makespan = !best_cmax;
      schedule;
      optimal = !certified || !complete;
      nodes = !nodes_total;
    }
  end

let optimal_makespan ?node_limit inst =
  let r = solve ?node_limit inst in
  if r.optimal then Some r.makespan else None
