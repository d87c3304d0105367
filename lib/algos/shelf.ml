open Resa_core

type variant = Nfdh | Ffdh

(* Shelves are built over jobs sorted by decreasing duration, so the first
   job of each shelf realises the shelf height. *)
type shelf = { mutable width_left : int; mutable members : int list; height : int }

let build variant inst =
  let m = Instance.m inst in
  let order = Priority.order Priority.Lpt inst in
  let shelves = ref [] in
  (* [shelves] kept in reverse creation order. *)
  Array.iter
    (fun i ->
      let j = Instance.job inst i in
      let place s =
        s.width_left <- s.width_left - Job.q j;
        s.members <- i :: s.members
      in
      let created () =
        shelves := { width_left = m - Job.q j; members = [ i ]; height = Job.p j } :: !shelves
      in
      match variant with
      | Nfdh -> (
        match !shelves with
        | current :: _ when current.width_left >= Job.q j -> place current
        | _ -> created ())
      | Ffdh -> (
        (* First fit scans shelves in creation order. *)
        match List.rev !shelves |> List.find_opt (fun s -> s.width_left >= Job.q j) with
        | Some s -> place s
        | None -> created ()))
    order;
  List.rev !shelves

let shelves variant inst = List.map (fun s -> List.rev s.members) (build variant inst)

let run variant inst =
  let n = Instance.n_jobs inst in
  let starts = Array.make n 0 in
  let free = Timeline.of_profile (Instance.availability inst) in
  let from = ref 0 in
  List.iter
    (fun s ->
      if s.members <> [] then begin
        (* Stack the whole shelf as one m-wide, height-tall block. The next
           shelf is searched from its end, so the block is never reserved:
           no later query reads its window. *)
        let t = Timeline.earliest_fit_at free ~from:!from ~dur:s.height ~need:(Instance.m inst) in
        List.iter (fun i -> starts.(i) <- t) s.members;
        from := t + s.height
      end)
    (build variant inst);
  Schedule.make starts
