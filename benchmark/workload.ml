(* The benchmark's workloads. Every input is a pure function of the workload
   name and the seed, except the exact-solver family, which is fixed (see
   [exact_instances]).

   A workload is replayed as a list of [part]s, one [Simulator.run_stream]
   call each: a replay workload is one part; exact-resv is every instance
   of the exact family, repeated [exact_repeats] times so that one pass is
   long enough to time. *)

open Resa_core
module Sim = Resa_sim.Simulator
module Swf_stream = Resa_swf.Swf_stream

let max_runtime = 2000
let overestimate = 2.0

type replay = {
  m : int;
  widest : int;  (** Widest job the generator draws (αm on resv-alpha). *)
  n : int;
  mean_gap : float;
  n_resv : int;
  on_disk : bool;  (** Written to an SWF file at setup and parsed back. *)
}

type t = Replay of replay | Exact

(* Why these workloads: see BENCHMARK.md. The sizes keep one replay under
   a second, so a run fits many rounds of four policies. synth-backlog sits
   at the deepest load that stays stable (FCFS diverges near gap 132), and
   its queue keeps deepening with length: 100k jobs reach twice the peak
   live set of 60k. resv-alpha's reservations reach 1.5 times as far as its
   jobs, so the timeline always holds a long future: with all 300 ahead, a
   gc'd timeline still has about 11.5k nodes, below the simulator's
   16384-node gc trigger,
   which fires on every decision from about 430 future reservations on.
   Closer to that cliff the seed moves the gc count, and words/event with
   it, by 10-20%. *)
let of_name = function
  | "swf-replay" ->
    Replay { m = 128; widest = 128; n = 60_000; mean_gap = 150.; n_resv = 0; on_disk = true }
  | "synth-backlog" ->
    Replay { m = 128; widest = 128; n = 100_000; mean_gap = 140.; n_resv = 0; on_disk = false }
  | "resv-alpha" ->
    Replay { m = 128; widest = 64; n = 20_000; mean_gap = 100.; n_resv = 300; on_disk = false }
  | "exact-resv" -> Exact
  | w -> invalid_arg ("unknown workload " ^ w)

(* α-RESASCHEDULING with α = 1/2: jobs at most 64 wide, reservations
   blocking at most the other 64 processors. *)
let reservations spec =
  List.init spec.n_resv (fun i ->
      Reservation.make ~id:i ~start:((10_000 * i) + 5_000) ~p:2_500 ~q:64)

(* The full "reserved" family of the exact-solver bench: hand-picked seeds,
   because neighbouring seeds can be orders of magnitude harder. *)
let exact_instances () =
  match List.find_opt (fun (name, _, _) -> name = "reserved") (Resa_bench.Bnb_bench.families ()) with
  | Some (_, _, insts) -> insts
  | None -> failwith "Bnb_bench.families has no reserved family"

let exact_repeats = 300

type source = unit -> Sim.arrival option

type part = {
  machine : int;
  resv : Reservation.t list;
  feed : 'a. (source -> 'a) -> 'a;  (** Run the continuation on a fresh source. *)
}

let swf_path ~dir ~seed = Filename.concat dir (Printf.sprintf "swf-replay-%d.swf" seed)

let synthetic spec ~seed =
  Swf_stream.synthetic ~overestimate (Prng.create ~seed) ~m:spec.widest ~n:spec.n ~max_runtime
    ~mean_gap:spec.mean_gap

(* The adapter the replay bench uses, so words/event keep its definition. *)
let adapt (src : Swf_stream.t) : source =
 fun () ->
  Option.map
    (fun (a : Swf_stream.arrival) -> Sim.{ job = a.job; submit = a.submit; estimate = a.estimate })
    (src ())

let of_instance inst =
  let jobs = Instance.jobs inst in
  {
    machine = Instance.m inst;
    resv = Array.to_list (Instance.reservations inst);
    feed =
      (fun f ->
        let i = ref 0 in
        f (fun () ->
            if !i >= Array.length jobs then None
            else begin
              let job = jobs.(!i) in
              incr i;
              Some Sim.{ job; submit = 0; estimate = Job.p job }
            end));
  }

let parts w ~seed ~dir =
  match w with
  | Replay spec ->
    let feed f =
      if spec.on_disk then
        Swf_stream.with_file ~m:spec.m (swf_path ~dir ~seed) (fun src -> f (adapt src))
      else f (adapt (synthetic spec ~seed))
    in
    [ { machine = spec.m; resv = reservations spec; feed } ]
  | Exact ->
    let once = List.map of_instance (exact_instances ()) in
    List.concat (List.init exact_repeats (fun _ -> once))

(* What the output checks need to know about one part's input. *)
type manifest = { jobs : int; area : int; release_end : int  (** max (submit + p) *) }

let manifest_of_source (next : source) =
  let jobs = ref 0 and area = ref 0 and release_end = ref 0 in
  let rec go () =
    match next () with
    | None -> ()
    | Some (a : Sim.arrival) ->
      incr jobs;
      area := !area + (Job.p a.job * Job.q a.job);
      release_end := max !release_end (a.submit + Job.p a.job);
      go ()
  in
  go ();
  { jobs = !jobs; area = !area; release_end = !release_end }

let swf_entry (a : Swf_stream.arrival) =
  let p = Job.p a.job and q = Job.q a.job in
  Resa_swf.Swf.
    {
      default with
      job_number = a.job_number;
      submit = a.submit;
      run = p;
      alloc_procs = q;
      req_procs = q;
      req_time = a.estimate;
      status = 1;
    }

(* Set-up: everything a replay needs before it starts — the generated
   input's manifest, the SWF file on swf-replay, the instances on
   exact-resv. The manifest comes from the generator, not from parsing the
   file back, so the replay's output check also covers the SWF round trip.
   Returns one manifest per distinct part. *)
let setup w ~seed ~dir =
  match w with
  | Replay spec ->
    let src = synthetic spec ~seed in
    if spec.on_disk then
      Out_channel.with_open_text (swf_path ~dir ~seed) (fun oc ->
          Printf.fprintf oc "; synthetic trace, seed %d, %d jobs\n; MaxProcs: %d\n" seed spec.n
            spec.m;
          let writing () =
            match src () with
            | Some a as r ->
              output_string oc (Resa_swf.Swf.to_line (swf_entry a));
              output_char oc '\n';
              r
            | None -> None
          in
          [ manifest_of_source (adapt writing) ])
    else [ manifest_of_source (adapt src) ]
  | Exact -> List.map (fun inst -> (of_instance inst).feed manifest_of_source) (exact_instances ())
