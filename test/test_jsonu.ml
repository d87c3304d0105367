(* The JSON writer against its [Printf]-based reference
   ([Jsonu_reference]): the same bytes for every number, string and key,
   on fixed edge cases and on generated documents. *)

module J = Resa_obs.Jsonu
module R = Jsonu_reference

let same name v =
  Alcotest.(check string) name (R.to_string v) (J.to_string v)

let test_integers () =
  List.iter
    (fun f -> same (Printf.sprintf "%h" f) (J.Num f))
    [
      0.; -0.; 1.; -1.; 9.; 10.; -10.; 99.; 100.; 12345.; -29955774.;
      1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 2. ** 53.; -.(2. ** 53.);
      float_of_int max_int; float_of_int min_int; 1e300;
    ]

let test_floats () =
  List.iter
    (fun f -> same (Printf.sprintf "%h" f) (J.Num f))
    [
      0.5; -0.5; 1e-7; -1e-7; 1e21; 0.567455; 1. /. 3.; 123456.789; 1e15 +. 0.5; 5e-324;
      Float.nan; Float.infinity; Float.neg_infinity; Float.max_float; Float.min_float;
    ]

let awkward =
  [
    ""; "plain"; "\""; "\\"; "\n"; "a\"b\\c\nd\te\rf"; "\000\001\031\127"; "\b\012";
    "caf\xc3\xa9"; "\xff\xfe"; "\xe2\x9c\x93 done";
  ]

let test_strings () =
  List.iter
    (fun s ->
      Alcotest.(check string) (String.escaped s) (R.escape s) (J.escape s);
      same (String.escaped s) (J.Str s);
      same (String.escaped s) (J.Obj [ (s, J.Str s); ("k", J.Num 1.) ]))
    awkward

let test_escape_shares_clean () =
  let s = "job_start" in
  Alcotest.(check bool) "clean string returned as is" true (J.escape s == s)

let test_shapes () =
  List.iter
    (fun v -> same (R.to_string v) v)
    [
      J.Null; J.Bool true; J.Bool false; J.List []; J.Obj []; J.List [ J.List []; J.Obj [] ];
      J.Obj [ ("a", J.List [ J.Num 1.; J.Null; J.Str "x" ]); ("b", J.Obj [ ("c", J.Bool false) ]) ];
    ]

(* Documents over the awkward numbers and bytes: integers across ±1e15
   and beyond, arbitrary floats, strings of arbitrary bytes as values and
   as keys. *)
let gen_doc =
  let open QCheck.Gen in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000_000) 1_000_000_000);
        map (fun f -> Float.round (f *. 1e15)) (float_range (-1.2) 1.2);
        float;
        oneofl [ 0.; -0.; 1e15; -1e15; 1e15 -. 1.; 2. ** 53.; Float.nan; Float.infinity ];
      ]
  in
  let str = string_size ~gen:char (int_range 0 12) in
  sized_size (int_range 0 4)
  @@ fix (fun self depth ->
         if depth = 0 then
           oneof [ return J.Null; map (fun b -> J.Bool b) bool; map (fun f -> J.Num f) num;
                   map (fun s -> J.Str s) str ]
         else
           frequency
             [
               (2, map (fun f -> J.Num f) num);
               (1, map (fun s -> J.Str s) str);
               (1, map (fun l -> J.List l) (list_size (int_range 0 4) (self (depth - 1))));
               ( 1,
                 map (fun l -> J.Obj l) (list_size (int_range 0 4) (pair str (self (depth - 1)))) );
             ])

let arb_doc = QCheck.make ~print:R.to_string gen_doc

let suite =
  [
    Alcotest.test_case "integers as %.0f" `Quick test_integers;
    Alcotest.test_case "other numbers as %.6g" `Quick test_floats;
    Alcotest.test_case "strings and keys escaped as before" `Quick test_strings;
    Alcotest.test_case "escape returns a clean string" `Quick test_escape_shares_clean;
    Alcotest.test_case "nesting and literals" `Quick test_shapes;
    Tutil.qcheck ~count:500 "to_string matches the Printf writer" arb_doc (fun v ->
        J.to_string v = R.to_string v);
  ]
