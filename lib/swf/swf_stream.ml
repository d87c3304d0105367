open Resa_core

type arrival = Swf.arrival = { job : Job.t; submit : int; estimate : int; job_number : int }

type t = unit -> arrival option

exception Parse_error of { line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; msg } -> Some (Printf.sprintf "Swf_stream.Parse_error(line %d: %s)" line msg)
    | _ -> None)

(* The read block; it doubles only to hold a line longer than itself. *)
let block_size = 65536

(* The one reader behind [of_channel] and [of_string]. Lines are parsed
   where they sit in [buf]: [buf.[pos .. len-1]] is unread input, and [fill]
   appends to it, returning 0 at end of input. A refill first moves the
   unfinished line to the front of the block. *)
let reader ~keep_failed ~m ~fill ~eof buf len =
  let buf = ref buf and pos = ref 0 and len = ref len and eof = ref eof in
  (* Bytes from [!pos] already searched for '\n' in vain. *)
  let seen = ref 0 in
  let lineno = ref 0 and next_id = ref 0 in
  let fields = Array.make 18 0 in
  let refill () =
    let rest = !len - !pos in
    if rest = Bytes.length !buf then begin
      let b = Bytes.create (2 * rest) in
      Bytes.blit !buf !pos b 0 rest;
      buf := b
    end
    else Bytes.blit !buf !pos !buf 0 rest;
    pos := 0;
    len := rest;
    let n = fill !buf rest (Bytes.length !buf - rest) in
    if n = 0 then eof := true else len := rest + n
  in
  (* End of the line at [!pos]: its '\n', or [!len] for an unterminated
     last line. *)
  let rec line_end () =
    let b = !buf and stop = !len in
    let i = ref (!pos + !seen) in
    while !i < stop && Bytes.unsafe_get b !i <> '\n' do
      incr i
    done;
    if !i < stop || !eof then !i
    else begin
      seen := stop - !pos;
      refill ();
      line_end ()
    end
  in
  let rec next () =
    if !pos = !len && not !eof then refill ();
    if !pos = !len then None
    else begin
      let stop = line_end () in
      let start = !pos in
      pos := if stop < !len then stop + 1 else stop;
      seen := 0;
      incr lineno;
      match Swf.scan !buf ~pos:start ~stop fields with
      | 0 -> next ()
      | 18 ->
        if Swf.keep_fields ~keep_failed fields then begin
          let id = !next_id in
          incr next_id;
          Some (Swf.arrival_of_fields ~m ~id fields)
        end
        else next ()
      | r -> raise (Parse_error { line = !lineno; msg = Swf.scan_error !buf ~pos:start ~stop r })
    end
  in
  next

let of_channel ?(keep_failed = true) ~m ic =
  reader ~keep_failed ~m ~fill:(In_channel.input ic) ~eof:false (Bytes.create block_size) 0

(* The whole text is the block and there is nothing to refill, so the
   reader never writes to it. *)
let of_string ?(keep_failed = true) ~m text =
  reader ~keep_failed ~m ~fill:(fun _ _ _ -> 0) ~eof:true (Bytes.unsafe_of_string text)
    (String.length text)

let with_file ?keep_failed ~m path f =
  In_channel.with_open_text path (fun ic -> f (of_channel ?keep_failed ~m ic))

(* The synthetic stream's one float of state, in an all-float record so
   that advancing it stores the float in place instead of boxing it. *)
type clock = { mutable now : float }

let synthetic ?(overestimate = 1.0) rng ~m ~n ~max_runtime ~mean_gap =
  if overestimate < 1.0 then invalid_arg "Swf_stream.synthetic: overestimate must be >= 1.0";
  if n < 0 then invalid_arg "Swf_stream.synthetic: negative n";
  if not (mean_gap > 0.0) then invalid_arg "Swf_stream.synthetic: mean_gap must be positive";
  let max_exp =
    let rec go e = if 1 lsl (e + 1) > m then e else go (e + 1) in
    go 0
  in
  (* Walltime factors are uniform in [1, 1 + spread]: mean = overestimate. *)
  let spread = 2.0 *. (overestimate -. 1.0) in
  let i = ref 0 in
  let clock = { now = 0.0 } in
  fun () ->
    if !i >= n then None
    else begin
      let id = !i in
      incr i;
      (* All randomness for job [id] is drawn here, in one fixed order —
         width, runtime, gap, walltime factor — so the stream is a pure
         function of (seed, id prefix) and never materialises the trace.
         The marginals match [Swf.generate] (power-of-two-biased widths,
         log-uniform runtimes, exponential gaps) but the interleaving
         differs, so the two are distinct deterministic families: replays
         cite one or the other, never mix. The two float draws are
         [Prng.exponential] and [Prng.float] written out on their int
         primitive [Prng.bits53], so no float crosses a call and none is
         boxed; the values are bit-identical. *)
      let q0 = 1 lsl Prng.int_incl rng ~lo:0 ~hi:max_exp in
      let q =
        if Prng.int rng ~bound:5 = 0 then max 1 (min m (q0 + Prng.int_incl rng ~lo:(-1) ~hi:1))
        else q0
      in
      let p = Prng.log_uniform_int rng ~lo:1 ~hi:max_runtime in
      if id > 0 then begin
        let u = 1.0 -. (float_of_int (Prng.bits53 rng) /. 0x1p53) in
        clock.now <- clock.now +. (-.mean_gap *. log u)
      end;
      let submit = int_of_float clock.now in
      let estimate =
        if overestimate <= 1.0 then p
        else begin
          let f = 1.0 +. (spread *. (float_of_int (Prng.bits53 rng) /. 0x1p53)) in
          max p (int_of_float (f *. float_of_int p))
        end
      in
      Some { job = Job.make ~id ~p ~q; submit; estimate; job_number = id + 1 }
    end
