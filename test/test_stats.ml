open Resa_stats

let feq = Alcotest.(check (float 1e-9))

(* Textbook references for [describe]: two-pass population standard
   deviation, a fold for the extremes, nearest-rank percentiles. *)
let ref_stddev xs =
  let n = float_of_int (List.length xs) in
  let mu = List.fold_left ( +. ) 0.0 xs /. n in
  sqrt (List.fold_left (fun acc x -> acc +. ((x -. mu) *. (x -. mu))) 0.0 xs /. n)

let ref_min_max = function
  | [] -> invalid_arg "ref_min_max"
  | x :: xs -> List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

let ref_percentile xs ~p =
  let a = Array.of_list (List.sort Float.compare xs) in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int (Array.length a))) in
  a.(max 0 (min (Array.length a - 1) (rank - 1)))

let describe xs = match Stats.describe xs with Some d -> d | None -> Alcotest.fail "no summary"

let test_mean_variance () =
  feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  feq "mean empty" 0.0 (Stats.mean []);
  feq "variance" (2.0 /. 3.0) ((describe [ 1.0; 2.0; 3.0 ]).Stats.std ** 2.0);
  feq "variance singleton" 0.0 (describe [ 5.0 ]).Stats.std

let test_min_max () =
  let d = describe [ 3.0; -1.0; 7.0 ] in
  feq "min" (-1.0) d.Stats.min;
  feq "max" 7.0 d.Stats.max

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  feq "median" 50.0 (Stats.median xs);
  feq "p95" 95.0 (describe xs).Stats.p95;
  feq "singleton" 4.0 (describe [ 4.0 ]).Stats.p95;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty list") (fun () ->
      ignore (Stats.median []))

let test_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.0; 1.0; 2.0; 3.0 ] in
  Alcotest.(check int) "two bins" 2 (List.length h);
  let counts = List.map (fun (_, _, c) -> c) h in
  Alcotest.(check (list int)) "counts" [ 2; 2 ] counts;
  Alcotest.(check int) "total preserved" 4 (List.fold_left ( + ) 0 counts)

let test_histogram_constant_data () =
  (* Degenerate range: no fabricated empty bins beyond the data — the
     result collapses to the single zero-width bin holding everything. *)
  let h = Stats.histogram ~bins:3 [ 5.0; 5.0; 5.0 ] in
  Alcotest.(check int) "collapses to a single bin" 1 (List.length h);
  (match h with
  | [ (lo, hi, c) ] ->
    feq "bin lo" 5.0 lo;
    feq "bin hi" 5.0 hi;
    Alcotest.(check int) "bin holds all samples" 3 c
  | _ -> Alcotest.fail "expected exactly one bin");
  Alcotest.(check int) "singleton sample too" 1
    (List.length (Stats.histogram ~bins:10 [ -2.5 ]))

let test_describe () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  match Stats.describe xs with
  | None -> Alcotest.fail "describe of non-empty list"
  | Some d ->
    Alcotest.(check int) "count" 100 d.Stats.count;
    feq "mean" 50.5 d.Stats.mean;
    feq "min" 1.0 d.Stats.min;
    feq "max" 100.0 d.Stats.max;
    feq "p50" 50.0 d.Stats.p50;
    feq "p95" 95.0 d.Stats.p95;
    Alcotest.(check (float 1e-9)) "std (Welford = two-pass)" (ref_stddev xs) d.Stats.std

let test_describe_empty () =
  Alcotest.(check bool) "None on empty" true (Stats.describe [] = None)

let prop_describe_agrees_with_wrappers =
  Tutil.qcheck "describe agrees with the legacy functions"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (float_range (-50.) 50.))
    (fun xs ->
      match Stats.describe xs with
      | None -> false
      | Some d ->
        let lo, hi = ref_min_max xs in
        let close a b = Float.abs (a -. b) <= 1e-9 in
        d.Stats.count = List.length xs
        && close d.Stats.mean (Stats.mean xs)
        && close d.Stats.std (ref_stddev xs)
        && d.Stats.min = lo && d.Stats.max = hi
        && d.Stats.p50 = Stats.median xs
        && d.Stats.p50 = ref_percentile xs ~p:50.0
        && d.Stats.p95 = ref_percentile xs ~p:95.0)

let test_sparkline () =
  let str = Alcotest.(check string) in
  str "empty" "" (Stats.sparkline []);
  str "flat series sits at the lowest level" "\xe2\x96\x81\xe2\x96\x81" (Stats.sparkline [ 3.0; 3.0 ]);
  str "min to max spans the levels" "\xe2\x96\x81\xe2\x96\x85\xe2\x96\x88"
    (Stats.sparkline [ 0.0; 0.5; 1.0 ]);
  str "non-finite samples skipped" "\xe2\x96\x81\xe2\x96\x88"
    (Stats.sparkline [ 0.0; Float.nan; Float.infinity; 1.0 ]);
  str "width keeps the trailing samples" "\xe2\x96\x81\xe2\x96\x88"
    (Stats.sparkline ~width:2 [ 9.0; 0.0; 1.0 ])

let test_table_render () =
  let t = Table.create ~headers:[ "alpha"; "ratio" ] in
  Table.add_row t [ "0.5"; "3.25" ];
  Table.add_row t [ "1.00"; "2.00" ];
  let out = Table.render t in
  Alcotest.(check bool) "header present" true (String.length out > 0);
  (* Four lines: header, separator, two rows. *)
  Alcotest.(check int) "line count" 4 (List.length (String.split_on_char '\n' (String.trim out)))

let test_table_rejects_ragged () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "wrong width" (Invalid_argument "Table.add_row: expected 2 cells, got 3")
    (fun () -> Table.add_row t [ "1"; "2"; "3" ])

let test_table_csv () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "with,comma"; "2" ];
  let csv = Table.to_csv t in
  Alcotest.(check bool) "escaped" true
    (String.length csv > 0 && String.contains csv '"')

let prop_mean_bounded =
  Tutil.qcheck "mean lies between min and max" QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range (-100.) 100.))
    (fun xs ->
      let lo, hi = ref_min_max xs in
      let mu = Stats.mean xs in
      lo -. 1e-9 <= mu && mu <= hi +. 1e-9)

let prop_histogram_conserves_count =
  Tutil.qcheck "histogram conserves the sample count"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range 0. 10.))
    (fun xs ->
      let h = Stats.histogram ~bins:5 xs in
      List.fold_left (fun acc (_, _, c) -> acc + c) 0 h = List.length xs)

(* --- streaming accumulators --------------------------------------------- *)

let fsum xs =
  let f = Stats.Fsum.create () in
  List.iter (Stats.Fsum.add f) xs;
  Stats.Fsum.total f

let test_fsum_exact () =
  (* Naive left-to-right summation loses the 1.0 entirely. *)
  feq "cancellation" 1.0 (fsum [ 1e16; 1.0; -1e16 ]);
  feq "empty" 0.0 (fsum []);
  feq "singleton" 3.5 (fsum [ 3.5 ]);
  (* Ten times the double nearest 0.1 sums to exactly 1 + 2^-54, which
     rounds to 1.0 — naive left-to-right addition lands one ulp short. *)
  Alcotest.(check bool) "naive drifts" true
    (List.fold_left ( +. ) 0.0 (List.init 10 (fun _ -> 0.1)) <> 1.0);
  Alcotest.(check bool) "tenth times ten" true (fsum (List.init 10 (fun _ -> 0.1)) = 1.0)

let test_fsum_rejects_non_finite () =
  let f = Stats.Fsum.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Stats.Fsum.add: non-finite term") (fun () ->
      Stats.Fsum.add f Float.nan);
  Alcotest.check_raises "inf" (Invalid_argument "Stats.Fsum.add: non-finite term") (fun () ->
      Stats.Fsum.add f Float.infinity)

let prop_fsum_order_independent =
  Tutil.qcheck ~count:500 "Fsum total is insertion-order independent" Tutil.seed_arb
    (fun seed ->
      let rng = Resa_core.Prng.create ~seed in
      let n = Resa_core.Prng.int_incl rng ~lo:1 ~hi:200 in
      (* Wildly mixed magnitudes to provoke rounding differences. *)
      let xs =
        Array.init n (fun _ ->
            let mag = Resa_core.Prng.int_incl rng ~lo:(-30) ~hi:30 in
            let sign = if Resa_core.Prng.bool rng then 1.0 else -1.0 in
            sign *. Resa_core.Prng.float rng ~bound:1.0 *. (2.0 ** float_of_int mag))
      in
      let a = fsum (Array.to_list xs) in
      Resa_core.Prng.shuffle rng xs;
      let b = fsum (Array.to_list xs) in
      Int64.bits_of_float a = Int64.bits_of_float b)

let test_p2_exact_small () =
  let p2 = Stats.P2.create ~q:0.5 in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.P2.value p2));
  List.iter (Stats.P2.add p2) [ 9.0; 1.0; 5.0 ];
  feq "exact median of 3" 5.0 (Stats.P2.value p2);
  Alcotest.(check int) "count" 3 (Stats.P2.count p2)

let test_p2_rejects_bad_quantile () =
  Alcotest.check_raises "q = 0" (Invalid_argument "Stats.P2.create: q must be in (0, 1)") (fun () ->
      ignore (Stats.P2.create ~q:0.0));
  Alcotest.check_raises "q = 1" (Invalid_argument "Stats.P2.create: q must be in (0, 1)") (fun () ->
      ignore (Stats.P2.create ~q:1.0))

let prop_p2_tracks_uniform =
  Tutil.qcheck ~count:50 "P2 median of U[0,1) lands near 0.5" Tutil.seed_arb (fun seed ->
      let rng = Resa_core.Prng.create ~seed in
      let p2 = Stats.P2.create ~q:0.5 in
      for _ = 1 to 5_000 do
        Stats.P2.add p2 (Resa_core.Prng.float rng ~bound:1.0)
      done;
      Float.abs (Stats.P2.value p2 -. 0.5) < 0.05)

let prop_p2_within_range =
  Tutil.qcheck ~count:200 "P2 estimate stays inside the observed range" Tutil.seed_arb
    (fun seed ->
      let rng = Resa_core.Prng.create ~seed in
      let qs = [| 0.1; 0.5; 0.95 |] in
      let q = qs.(Resa_core.Prng.int rng ~bound:3) in
      let p2 = Stats.P2.create ~q in
      let lo = ref Float.infinity and hi = ref Float.neg_infinity in
      let n = Resa_core.Prng.int_incl rng ~lo:1 ~hi:300 in
      for _ = 1 to n do
        let x = Resa_core.Prng.float rng ~bound:100.0 in
        lo := Float.min !lo x;
        hi := Float.max !hi x;
        Stats.P2.add p2 x
      done;
      let v = Stats.P2.value p2 in
      !lo <= v && v <= !hi)

(* The int-argument adders are the streaming metrics' allocation-free
   entry points; they must be the float adders bit for bit. *)
let bits = Int64.bits_of_float

let prop_fsum_add_ratio_exact =
  Tutil.qcheck ~count:500 "Fsum.add_ratio equals add of the float quotient" Tutil.seed_arb
    (fun seed ->
      let rng = Resa_core.Prng.create ~seed in
      let a = Stats.Fsum.create () and b = Stats.Fsum.create () in
      let n = Resa_core.Prng.int_incl rng ~lo:1 ~hi:100 in
      for _ = 1 to n do
        let num = Resa_core.Prng.int_incl rng ~lo:(-1_000_000) ~hi:1_000_000_000 in
        let den = Resa_core.Prng.int_incl rng ~lo:1 ~hi:100_000 in
        Stats.Fsum.add_ratio a num den;
        Stats.Fsum.add b (float_of_int num /. float_of_int den)
      done;
      bits (Stats.Fsum.total a) = bits (Stats.Fsum.total b))

let prop_p2_add_int_exact =
  Tutil.qcheck ~count:200 "P2.add_int equals add of the float sample" Tutil.seed_arb (fun seed ->
      let rng = Resa_core.Prng.create ~seed in
      let q = [| 0.1; 0.5; 0.95 |].(Resa_core.Prng.int rng ~bound:3) in
      let a = Stats.P2.create ~q and b = Stats.P2.create ~q in
      let n = Resa_core.Prng.int_incl rng ~lo:1 ~hi:400 in
      let same = ref true in
      for _ = 1 to n do
        let x = Resa_core.Prng.int_incl rng ~lo:0 ~hi:100_000 in
        Stats.P2.add_int a x;
        Stats.P2.add b (float_of_int x);
        if bits (Stats.P2.value a) <> bits (Stats.P2.value b) then same := false
      done;
      !same && Stats.P2.count a = Stats.P2.count b)

(* The bounded slowdown is fed as (max (wait+p) b) / b: the same double as
   max 1 ((wait+p) / b) for every positive numerator and bound. *)
let prop_bounded_slowdown_identity =
  Tutil.qcheck ~count:1000 "max 1 (a/b) = (max a b)/b on positive ints"
    QCheck.(pair (int_range 1 1_000_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let fa = float_of_int a and fb = float_of_int b in
      bits (Float.max 1.0 (fa /. fb)) = bits (float_of_int (max a b) /. fb))

let suite =
  [
    Alcotest.test_case "mean and variance" `Quick test_mean_variance;
    Alcotest.test_case "min and max" `Quick test_min_max;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram of constant data" `Quick test_histogram_constant_data;
    Alcotest.test_case "describe summary" `Quick test_describe;
    Alcotest.test_case "describe of empty list" `Quick test_describe_empty;
    prop_describe_agrees_with_wrappers;
    Alcotest.test_case "sparkline scales, skips and scrolls" `Quick test_sparkline;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table rejects ragged rows" `Quick test_table_rejects_ragged;
    Alcotest.test_case "CSV escaping" `Quick test_table_csv;
    prop_mean_bounded;
    prop_histogram_conserves_count;
    Alcotest.test_case "Fsum exact summation" `Quick test_fsum_exact;
    Alcotest.test_case "Fsum rejects non-finite terms" `Quick test_fsum_rejects_non_finite;
    prop_fsum_order_independent;
    Alcotest.test_case "P2 exact below 5 samples" `Quick test_p2_exact_small;
    Alcotest.test_case "P2 rejects degenerate quantiles" `Quick test_p2_rejects_bad_quantile;
    prop_p2_tracks_uniform;
    prop_p2_within_range;
    prop_fsum_add_ratio_exact;
    prop_p2_add_int_exact;
    prop_bounded_slowdown_identity;
  ]
