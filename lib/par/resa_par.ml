open Resa_core

(* ------------------------------------------------------------------ *)
(* pool sizing                                                         *)
(* ------------------------------------------------------------------ *)

let env_domains () =
  match Sys.getenv_opt "RESA_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let default_domains () =
  match env_domains () with
  | Some n -> n
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

let override = ref None

let domain_count () =
  match !override with Some n -> n | None -> default_domains ()

(* ------------------------------------------------------------------ *)
(* the pool                                                            *)
(* ------------------------------------------------------------------ *)

(* One block of tasks [0, n): workers (and the submitter) claim indices
   under the mutex and run them unlocked. [run] must not raise — the
   combinators wrap user functions with their own exception capture. *)
type block = { run : int -> unit; n : int }

type pool = {
  mutex : Mutex.t;
  has_work : Condition.t;  (* new block installed, or shutdown *)
  all_done : Condition.t;  (* last task of the block completed *)
  mutable block : block option;
  mutable next : int;  (* next unclaimed index of [block] *)
  mutable unfinished : int;  (* claimed-or-unclaimed tasks not yet done *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  size : int;  (* total domains, including the submitting one *)
}

(* Busy accounting (RESA_METRICS): time spent inside tasks, summed over
   all executing domains. The clock reads sit outside the mutex, so they
   cost nothing to the other workers even when collection is on. *)
let c_busy = Resa_obs.Metrics.counter "wall.par.busy_ns"

let run_task run i =
  if Resa_obs.Metrics.enabled () then begin
    let t0 = Resa_obs.Prof.now_ns () in
    Fun.protect
      ~finally:(fun () -> Resa_obs.Metrics.add c_busy (Resa_obs.Prof.now_ns () - t0))
      (fun () -> run i)
  end
  else run i

(* Claim and execute tasks until the block is exhausted. The mutex is
   held on entry and on exit. *)
let drain p b =
  while p.next < b.n do
    let i = p.next in
    p.next <- i + 1;
    Mutex.unlock p.mutex;
    run_task b.run i;
    Mutex.lock p.mutex;
    p.unfinished <- p.unfinished - 1;
    if p.unfinished = 0 then Condition.broadcast p.all_done
  done

let worker p () =
  Mutex.lock p.mutex;
  let rec loop () =
    if p.stop then Mutex.unlock p.mutex
    else begin
      (match p.block with
      | Some b when p.next < b.n -> drain p b
      | _ -> Condition.wait p.has_work p.mutex);
      loop ()
    end
  in
  loop ()

let make_pool size =
  let p =
    {
      mutex = Mutex.create ();
      has_work = Condition.create ();
      all_done = Condition.create ();
      block = None;
      next = 0;
      unfinished = 0;
      stop = false;
      workers = [];
      size;
    }
  in
  p.workers <- List.init (size - 1) (fun _ -> Domain.spawn (worker p));
  p

let the_pool = ref None

let shutdown_pool p =
  Mutex.lock p.mutex;
  let was_stopped = p.stop in
  p.stop <- true;
  Condition.broadcast p.has_work;
  Mutex.unlock p.mutex;
  if not was_stopped then List.iter Domain.join p.workers

let shutdown () =
  match !the_pool with
  | None -> ()
  | Some p ->
    the_pool := None;
    shutdown_pool p

let () = at_exit shutdown

let get_pool size =
  match !the_pool with
  | Some p when p.size = size -> p
  | existing ->
    Option.iter shutdown_pool existing;
    let p = make_pool size in
    the_pool := Some p;
    p

let set_domains n =
  let n = max 1 n in
  override := Some n;
  match !the_pool with
  | Some p when p.size <> n -> shutdown ()
  | _ -> ()

let with_domains d f =
  let saved = !override in
  set_domains d;
  Fun.protect
    ~finally:(fun () ->
      override := saved;
      (* Drop a pool whose size no longer matches the restored config. *)
      match !the_pool with
      | Some p when p.size <> domain_count () -> shutdown ()
      | _ -> ())
    f

(* Only one parallel section runs at a time; sections started while the
   flag is held (nested calls from worker tasks, or a second domain)
   fall back to an inline sequential loop — same results by design. *)
let busy = Atomic.make false

let run_block p ~n run =
  Mutex.lock p.mutex;
  p.block <- Some { run; n };
  p.next <- 0;
  p.unfinished <- n;
  Condition.broadcast p.has_work;
  (match p.block with Some b -> drain p b | None -> ());
  while p.unfinished > 0 do
    Condition.wait p.all_done p.mutex
  done;
  p.block <- None;
  Mutex.unlock p.mutex

(* The primitive everything else is built on: fill [results] with
   [Some (f i)] for i in [0, n), in parallel when the pool allows it,
   re-raising the lowest-index exception at the join point. *)
let run_tasks ?domains n f results =
  let seq lo =
    for i = lo to n - 1 do
      run_task (fun i -> results.(i) <- Some (f i)) i
    done
  in
  let d = match domains with Some d -> max 1 d | None -> domain_count () in
  let d = min d n in
  if d <= 1 then seq 0
  else if not (Atomic.compare_and_set busy false true) then seq 0
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () ->
        let failure = Atomic.make None in
        let run i =
          match f i with
          | v -> results.(i) <- Some v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            let rec record () =
              match Atomic.get failure with
              | Some (j, _, _) when j <= i -> ()
              | cur ->
                if not (Atomic.compare_and_set failure cur (Some (i, e, bt)))
                then record ()
            in
            record ()
        in
        Resa_obs.Prof.with_span ~cat:"par" "par.run_block" (fun () ->
            run_block (get_pool d) ~n run);
        match Atomic.get failure with
        | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())

let parallel_map ?domains f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_tasks ?domains n (fun i -> f a.(i)) results;
    Array.map (function Some v -> v | None -> assert false) results
  end

let parallel_map_list ?domains f l =
  Array.to_list (parallel_map ?domains f (Array.of_list l))

let parallel_for_reduce ?domains ~lo ~hi ~init ~f ~combine () =
  let n = hi - lo in
  if n <= 0 then init
  else begin
    let results = Array.make n None in
    run_tasks ?domains n (fun i -> f (lo + i)) results;
    Array.fold_left
      (fun acc r -> match r with Some v -> combine acc v | None -> assert false)
      init results
  end

let parallel_replicates ?domains rng ~n f =
  if n <= 0 then [||]
  else begin
    (* Split in ascending replicate order, before any task runs: the
       per-replicate streams depend only on [rng]'s incoming state. *)
    let rngs = Array.make n rng in
    for i = 0 to n - 1 do
      rngs.(i) <- Prng.split rng
    done;
    let results = Array.make n None in
    run_tasks ?domains n (fun i -> f rngs.(i) i) results;
    Array.map (function Some v -> v | None -> assert false) results
  end
