open Resa_core

let test_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then distinct := true
  done;
  Alcotest.(check bool) "different seeds differ" true !distinct

let test_int_range () =
  let g = Prng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Prng.int g ~bound:7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done

let test_int_incl_range () =
  let g = Prng.create ~seed:10 in
  for _ = 1 to 1000 do
    let v = Prng.int_incl g ~lo:(-3) ~hi:4 in
    if v < -3 || v > 4 then Alcotest.failf "out of range: %d" v
  done

let test_int_incl_degenerate () =
  let g = Prng.create ~seed:11 in
  Alcotest.(check int) "lo=hi" 5 (Prng.int_incl g ~lo:5 ~hi:5)

let test_int_covers_all_values () =
  let g = Prng.create ~seed:12 in
  let seen = Array.make 5 false in
  for _ = 1 to 2000 do
    seen.(Prng.int g ~bound:5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_float_range () =
  let g = Prng.create ~seed:13 in
  for _ = 1 to 1000 do
    let v = Prng.float g ~bound:2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let test_bool_both () =
  let g = Prng.create ~seed:14 in
  let t = ref false and f = ref false in
  for _ = 1 to 200 do
    if Prng.bool g then t := true else f := true
  done;
  Alcotest.(check bool) "both outcomes" true (!t && !f)

let test_shuffle_permutation () =
  let g = Prng.create ~seed:15 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_copy_independent () =
  let g = Prng.create ~seed:16 in
  let _ = Prng.bits64 g in
  let h = Prng.copy g in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 g) (Prng.bits64 h)

let test_split_independent () =
  let g = Prng.create ~seed:17 in
  let h = Prng.split g in
  (* The split stream must not simply mirror the parent. *)
  let same = ref true in
  for _ = 1 to 5 do
    if Prng.bits64 g <> Prng.bits64 h then same := false
  done;
  Alcotest.(check bool) "split differs from parent" false !same

let test_exponential_positive () =
  let g = Prng.create ~seed:18 in
  for _ = 1 to 500 do
    if Prng.exponential g ~mean:3.0 < 0.0 then Alcotest.fail "negative sample"
  done

let test_exponential_mean () =
  let g = Prng.create ~seed:19 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential g ~mean:5.0
  done;
  let mu = !sum /. float_of_int n in
  if mu < 4.5 || mu > 5.5 then Alcotest.failf "mean %.3f too far from 5" mu

let test_log_uniform_bounds () =
  let g = Prng.create ~seed:20 in
  for _ = 1 to 1000 do
    let v = Prng.log_uniform_int g ~lo:2 ~hi:1000 in
    if v < 2 || v > 1000 then Alcotest.failf "out of range: %d" v
  done

let test_log_uniform_skew () =
  (* Log-uniform over [1, 1024] should put roughly half the mass below 32. *)
  let g = Prng.create ~seed:21 in
  let n = 10_000 in
  let below = ref 0 in
  for _ = 1 to n do
    if Prng.log_uniform_int g ~lo:1 ~hi:1024 <= 32 then incr below
  done;
  let frac = float_of_int !below /. float_of_int n in
  if frac < 0.35 || frac > 0.65 then Alcotest.failf "low-half mass %.3f not near 0.5" frac

let test_invalid_args () =
  let g = Prng.create ~seed:22 in
  Alcotest.check_raises "int bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g ~bound:0));
  Alcotest.check_raises "int_incl inverted" (Invalid_argument "Prng.int_incl: lo > hi") (fun () ->
      ignore (Prng.int_incl g ~lo:3 ~hi:2))

(* Golden vectors: the first 64 outputs of each draw for three seeds,
   recorded before the generator state was unboxed. Every table, figure
   and benchmark digest of the repository is a function of these streams,
   so they must never move. *)

let seeds = [ 0; 42; 4242 ]

(* Arguments of the i-th draw. [int] cycles through bounds up to a quarter
   of [max_int], where the rejection loop discards about half the draws. *)
let int_bound i = [| 1; 2; 6; 100; 1_000_000; 1 lsl 40; (max_int lsr 2) + 12345 |].(i mod 7)
let incl_range i = (i - 50, i - 50 + (i * 37 mod 200))

let log_range i =
  let lo = 1 + (i mod 5) in
  (lo, lo + [| 0; 10; 1000; 100_000 |].(i mod 4))

let float_bound i = [| 1.0; 2.5; 1e6 |].(i mod 3)
let mean i = 1.0 +. float_of_int i

let int64s =
  [
    ("bits64", 0, [|
       0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x6c45d188009454fL; 0xf88bb8a8724c81ecL;
       0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL;
       0x3ee5789041c98ac3L; 0xf3b8488c368cb0a6L; 0x657eecdd3cb13d09L; 0xc2d326e0055bdef6L;
       0x8621a03fe0bbdb7bL; 0x8e1f7555983aa92fL; 0xb54e0f1600cc4d19L; 0x84bb3f97971d80abL;
       0x7d29825c75521255L; 0xc3cf17102b7f7f86L; 0x3466e9a083914f64L; 0xd81a8d2b5a4485acL;
       0xdb01602b100b9ed7L; 0xa9038a921825f10dL; 0xedf5f1d90dca2f6aL; 0x54496ad67bd2634cL;
       0xdd7c01d4f5407269L; 0x935e82f1db4c4f7bL; 0x69b82ebc92233300L; 0x40d29eb57de1d510L;
       0xa2f09dabb45c6316L; 0xee521d7a0f4d3872L; 0xf16952ee72f3454fL; 0x377d35dea8e40225L;
       0xc7de8064963bab0L; 0x5582d37111ac529L; 0xd254741f599dc6f7L; 0x69630f7593d108c3L;
       0x417ef96181daa383L; 0x3c3c41a3b43343a1L; 0x6e19905dcbe531dfL; 0x4fa9fa7324851729L;
       0x84eb4454a792922aL; 0x134f7096918175ceL; 0x7dc930b302278a8L; 0x12c015a97019e937L;
       0xcc06c31652ebf438L; 0xecee65630a691e37L; 0x3e84ecb1763e79adL; 0x690ed476743aae49L;
       0x774615d7b1a1f2e1L; 0x22b353f04f4f52daL; 0xe3ddd86ba71a5eb1L; 0xdf268adeb6513356L;
       0x2098eb73d4367d77L; 0x3d6845323ce3c71L; 0xc952c5620043c714L; 0x9b196bca844f1705L;
       0x30260345dd9e0ec1L; 0xcf448a5882bb9698L; 0xf4a578dccbc87656L; 0xbfdeaed9a17b3c8fL;
       0xed79402d1d5c5d7bL; 0x55f070ab1cbbf170L; 0x3e00a34929a88f1dL; 0xe255b237b8bb18fbL; |]);
    ("bits64", 42, [|
       0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L;
       0x9bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L;
       0x5705b8770b3d7dd5L; 0x9e54d738297f77aeL; 0x3474724a775b19bfL; 0x7e348a0e451650beL;
       0x836ded897f3e46e6L; 0x851f977347ed6db7L; 0xaa47e31c02e78edcL; 0x341452c54d7c33f2L;
       0x1a83d752f35eba75L; 0x7ed90003f67f9e1dL; 0x17eadff448a86a07L; 0xb05eca1a2972b860L;
       0xf513444b6455a3e8L; 0x12b3a6dd261f6e99L; 0x998d8fb100ca15d5L; 0x9eac75d45474c891L;
       0x12fc33f229b7b950L; 0x470ea7e37990e511L; 0xbdf25b150620a835L; 0xc9167e198fb9991fL;
       0xf1222631cdc86d07L; 0xb1b59f1b53585e43L; 0xca376da14213d975L; 0xd72c1692509d2c5eL;
       0xa5a7fe4e63a4f49dL; 0xc83b65023bcb7fdeL; 0xa3351c7fc9a4c255L; 0x61492dc04af06e43L;
       0x102267f0f38c5511L; 0x441c09c50b29db41L; 0xc2de56b8961d5f40L; 0x178b25ac7ebbdf84L;
       0x87bebc2706d02922L; 0x28b7d294ce2b6939L; 0x45e78cf4fe332d8cL; 0xc6582fcba2a4af11L;
       0xab155b91ff450033L; 0x5246b314ecd58fcaL; 0x15a099069c7d64aaL; 0x247b01271f2670d7L;
       0x813f3c933ea15b6eL; 0xf828b6a4c0f08cefL; 0x5e402c0a9dd5bb41L; 0x30415e8a6be95008L;
       0x2781afb139cc2d24L; 0x51f578ece4c68f5bL; 0x6ad07051c9dfa35L; 0xd28f82f00d3cd44bL;
       0xaf080b41cdf27a01L; 0x8e53b8da0059e8baL; 0xe00926ac0ba9b7b0L; 0x84235b62dc64cbaL;
       0x42577fcef4571016L; 0xf6fd4f0b3ac5ea86L; 0x9c08f817bb9e9346L; 0xb7dcbd429a0baaaL; |]);
    ("bits64", 4242, [|
       0xd74f6f6ccba020e3L; 0x5bdb685821e4d4b2L; 0x5ce6791747f8aa2dL; 0xb2d3459aa1c20375L;
       0x356ba00bf5526eb4L; 0xfb3abf2651051c56L; 0xc2279a8f6f6527b8L; 0xba98caf071249d54L;
       0xbba9557e567a5207L; 0x6cc7d9f242072ea5L; 0xba2a5025f25d6366L; 0x2566cb5480c8c00aL;
       0x2222168f97633944L; 0x3a83eb3263b49fd3L; 0xa54840ff44e57e1fL; 0xa5c02b42537effddL;
       0xca26932aa7800eddL; 0xe03e9c36613472afL; 0xfae725685230383bL; 0x66414092208527eL;
       0xaf757b45280dc66dL; 0xf0e62e129a53bcd6L; 0xb4aff164fac1f386L; 0x718ac2f06b46bedeL;
       0x54360b01e9afef2dL; 0x1615fc04b92389d4L; 0xb5afa6629760e7abL; 0xe8a328a20878fa73L;
       0x85b1a67a080681edL; 0xb58f2bc751d28f4cL; 0x29ed77945164a929L; 0x3c04431bbce46edL;
       0x2fd733efdfd17619L; 0xaa9b5e8d43ff59dL; 0x5dbbcf7ca6f5603bL; 0x52aada769d7477a8L;
       0xfa08e2e75b3f3378L; 0x2b39bc8873ed19e4L; 0x507975ed2a05697dL; 0x5087afd124cc2b2cL;
       0xa8cf712b033da13bL; 0x21bb5a438fbf592eL; 0x2ab82de7c5be4a0fL; 0x409ac274048e9a6fL;
       0x7549ee66b346a0d8L; 0xe911f00532bda6c8L; 0x792fa5d2f2931e4eL; 0x57d53dca0c06469L;
       0x931b3d33db14c175L; 0x9d6fdf140c6e9411L; 0x1d1e544b287ec02fL; 0x1b80a99fa76067daL;
       0xbea879fab226e0e6L; 0x360a6cbf6e478cabL; 0x9795d480c2c50392L; 0xa4714a0f468059c6L;
       0x448dece272f21246L; 0xb9c13015d76d1e89L; 0x604e2df4d5c766eaL; 0xccb58dd3bb7cf4baL;
       0xf681edff1bc20d1eL; 0xa57a5e0f8d3457bcL; 0x3eb6f9d41aeb8be8L; 0xc7b5db672eebc50cL; |]);
    ("split", 0, [|
       0x139c1d46c031b29eL; 0x42f3f08b8505070dL; 0xe24242236773b24bL; 0x2b13fab0db58f000L;
       0xe8ca270524d8188aL; 0xf5893c462ec94a7cL; 0xaca231d8af946a4eL; 0x39b435cb1b19f112L;
       0x45308356fe5722L; 0x8356b383404682dfL; 0x879dc0df35e233c3L; 0xf6692fc3157095ffL;
       0xd68d1ccf72d8429eL; 0xd94e329a9d5b79c4L; 0xaa352ef71907d3d0L; 0xee6fdee4bf6a6ec7L;
       0xe978444478ee777dL; 0x1f3d3589eed71236L; 0x4c75c8bb73d3885aL; 0x755a41ad7cd9a286L;
       0xa82e5be2f13ba988L; 0x3723266061ccce5bL; 0xbbce73d547702643L; 0xc529a8cda62d8156L;
       0xfb07b2a2c83289b2L; 0x2d8410cf37a9443cL; 0x3ee54dbed0706b0aL; 0xa64ff66d4ab45db7L;
       0xeb8648213afa1fb5L; 0xec4a4293a4b0c6bdL; 0x6808f77eb3f5dd8eL; 0x1d39864650282f0L;
       0xe5310df6dc0c1506L; 0xab989bcc2b19b59cL; 0x5acfcf06c920dc78L; 0xd033e131cb7202e7L;
       0x34ed05b15281617eL; 0x5afd3ccee7d29fc8L; 0x25d18ee3e598370bL; 0x99351c3b167691c0L;
       0x44353862ec27fd5fL; 0x789a3d0f9dba4e8dL; 0x85e81acc9bf58ce9L; 0x3c9af5d1fe6dad4fL;
       0xd03b0ac259089208L; 0xa799897cf331a0bdL; 0xfddee3aa3597af58L; 0xfd69ac89cab83e9bL;
       0x3566ca456f81b90bL; 0xbefd8687c82cb1fbL; 0x13c796edeca0ec55L; 0xe6bd0414c5c7962L;
       0x746d8d4c9b3665a7L; 0xe3751e411cf9a3a4L; 0x96c0c792c47d95fL; 0xe72d2c148e9a8b21L;
       0x9b1d742c59e132eeL; 0x44b24eaa0179cecL; 0xfea5fa1da157646aL; 0xe4ac00ce423f3e03L;
       0x6fb3cc5e03f81188L; 0xf36d8dd73a2e68L; 0xa1d5af7f0b84d748L; 0x72b14d953587598cL; |]);
    ("split", 42, [|
       0xf5c2c3fa732b301bL; 0xd81c3e6fdffb5eb2L; 0x5b6c23f35df81c91L; 0x7341df633e079695L;
       0x3432dc785bdbb6e2L; 0x47e2c9fdc4e45636L; 0x30e45302c3a74cabL; 0x7a2fb711d38f9d41L;
       0x1a80feb6ff2f679cL; 0xe232647d0be5a4fdL; 0xca3e9d17746c3642L; 0xa343211f3bc05db4L;
       0x2c31bfb95e7e5dL; 0x656b2b65934ee4fdL; 0x621c1ac00ca49c52L; 0x476d4acb6f30fbc8L;
       0x85d3d1cee2d4b945L; 0xd5c593b2dbae5989L; 0x711589c84b34f7e6L; 0x23f010b778dfb782L;
       0x8c87904a7ea93937L; 0x5ae0ec90d8be7378L; 0x3bb6233362c44d68L; 0x2041f50640d51d87L;
       0xe88198a7cdc29937L; 0x9c8fa065a1115387L; 0x1274562a2745c254L; 0xb242ebc5f86317a6L;
       0xd51d15b1a056675bL; 0x651e02a2553b7f42L; 0x6b45813276e9d9c0L; 0x45ba6027fb8d9c2L;
       0x2b600164f69138e3L; 0x7fa6702d962ee4d1L; 0x78d64361bcb5744aL; 0xd5cbc0fa899871bcL;
       0x9378425991962bddL; 0xe38562b2aa701acdL; 0x9db43e1fc817a9b8L; 0x94288938b682368eL;
       0xa3c4163707b90777L; 0x4c0738768f25af2aL; 0xfb4beb926c3e050aL; 0xd19c438c17c27cc7L;
       0x35563eff418853d0L; 0x76f501a04cc8c18dL; 0x452c9e5dc7011e00L; 0xd80425072f45fb76L;
       0x99d8a426645b8e69L; 0xe6aa2cc89bc28f5cL; 0x7935839821e3c451L; 0x939321321acfdf29L;
       0x7d0df634107bf5dfL; 0xf093488c7b425613L; 0x4e59371e06a8258cL; 0x3a81bec7d1e55a31L;
       0x149e4193cdf6183L; 0x38fbc3395a21dd82L; 0x6d6c8d3f3b39e5e3L; 0x74b2ece79eb0dbedL;
       0xb1a9403ba6ec8509L; 0x738f624a89f32c88L; 0xe2069aaeb227613eL; 0x9e12989dbed2975aL; |]);
    ("split", 4242, [|
       0xa2ece1b4a5484b39L; 0x4e1abb8cf3e9c0d8L; 0x9946b1c17a329f07L; 0x7f34f525f7f0d9a9L;
       0xe3b0f62289bc9f2cL; 0x98b106ca64c6172L; 0xcd51e6951816b8a5L; 0xa8672d94ad84c1f5L;
       0x3b7b4de238882d33L; 0x28ee518a81d53012L; 0x33d610fa81bfa187L; 0xf020809dda0b5984L;
       0xea775770e423b634L; 0xdeeab69eaaa421deL; 0xe20e134933d06daeL; 0x5f6f58cf34688b4dL;
       0xda92614efe0a5e18L; 0x8b99cad11d5523fbL; 0xe2e575ef88b0db22L; 0xdf79897fec5f8541L;
       0x2f4ecf2f8b80f640L; 0x7330fae8861b2254L; 0xb93f8984e9e5537fL; 0x985d0df0ecce36bbL;
       0x2eeb78446f16cba2L; 0xf47a4b7e52c37b94L; 0x74e4ce58379f9958L; 0xad2bd6e57d42f7aeL;
       0x21dc8ef86aa76367L; 0x38e743341c70ceebL; 0x86579dbf07b48dbcL; 0x520439625670dacfL;
       0xdd2e8f87dae6f3d2L; 0x4347f01deea14d0L; 0xc701898ecf5848e1L; 0x9cfcecd7e86fdeb8L;
       0x425f9184ec6f2e71L; 0xac28d57f20ea4327L; 0xf5b90c67a4ac1549L; 0x49556d2e9e2a0900L;
       0xe47717d3db184baaL; 0x4f2c04ff47b2cf5aL; 0x6e634e5e18f5d27aL; 0xa13e51fa062ca02aL;
       0xe4b6e385a4ce5b25L; 0xb140201d8799536cL; 0x4129137ad4cc17e2L; 0xaef6ee7c0cfeab16L;
       0xafb377d9a5d487faL; 0xeb9209adedbb1483L; 0x94c0d5bb620128bcL; 0x9f9873c88d8d3000L;
       0x51199cd5cc771599L; 0x9d516744fea8facaL; 0x8de115ff443179bfL; 0xa01a07773c44331fL;
       0xf62c79a28142fddaL; 0x2d59fedfb1e54c93L; 0x400e24e325508ea1L; 0x45241567e56d6392L;
       0x9c0276d735c070abL; 0x77c56eb7faac78f8L; 0xcb78580c888bca80L; 0x561639faf902e6f0L; |]);
  ]

let ints =
  [
    ("int", 0, [|
       0; 1; 4; 22;
       76728; 154894754480; 943990553302029273; 0;
       0; 4; 41; 671916;
       334005449034; 1085104078059262184; 0; 0;
       1; 70; 387853; 190548254315;
       625108627427153078; 0; 0; 2;
       4; 596167; 1012993275203; 918499953720258431;
       0; 0; 4; 74;
       354605; 569715063720; 490371536638235419; 0;
       0; 3; 21; 663105;
       955008706881; 476698279353008246; 0; 0;
       5; 53; 755036; 782547702789;
       991184901936851819; 0; 0; 2;
       8; 220975; 974795373564; 1018125793617985848;
       0; 1; 2; 19;
       468898; 127202463224; 476670991899687866; 0; |]);
    ("int", 42, [|
       0; 0; 3; 12;
       406231; 127822421877; 944942912856573551; 0;
       0; 1; 15; 661761;
       787212655526; 342006375497199188; 0; 0;
       4; 48; 492001; 709534341710;
       389603431186127146; 0; 0; 2;
       33; 26646; 830122458765; 148774289333654318;
       0; 0; 3; 93;
       793532; 119612783243; 65194558640809599; 0;
       0; 4; 57; 691868;
       677740277021; 979899288619961539; 0; 1;
       3; 96; 54446; 1020469250768;
       600460288141710202; 0; 0; 1;
       60; 736350; 796687914381; 224450498094945747;
       0; 1; 1; 22;
       968449; 191370459327; 829263147939154165; 0; |]);
    ("int", 4242, [|
       0; 1; 3; 1;
       537986; 703935860305; 1054118069450647540; 0;
       1; 1; 77; 971850;
       53401063867; 861820286280162694; 0; 0;
       2; 21; 230239; 1049200102091;
       607658917529376331; 0; 1; 0;
       27; 336346; 80700485643; 495442584804006390;
       0; 1; 0; 98;
       397900; 602105297463; 541039024896317920; 0;
       0; 2; 52; 484744;
       441219491218; 229675407334235930; 0; 1;
       1; 70; 557404; 702531679193;
       319833152232120817; 0; 0; 5;
       68; 593009; 163760666638; 480178506303564677;
       0; 1; 4; 85;
       987235; 467498142066; 449064431045840802; 0; |]);
    ("int_incl", 0, [|
       (-50); (-26); 13; (-5);
       36; 47; (-26); (-2);
       3; 28; 121; (-35);
       (-22); 29; (-24); (-7);
       (-11); (-19); 9; 3;
       37; 85; (-25); 20;
       (-8); (-5); 35; 6;
       11; (-11); 52; 80;
       15; (-15); 27; 80;
       51; 51; (-6); 27;
       62; 97; 61; 34;
       8; 18; 42; 74;
       170; 0; 46; 7;
       21; 85; 61; 14;
       75; 64; 138; 19;
       19; 56; 39; 77; |]);
    ("int_incl", 42, [|
       (-50); (-39); 18; 45;
       93; 24; (-44); (-32);
       36; (-18); 43; (-38);
       (-8); 39; (-14); (-31);
       109; (-5); 27; 55;
       25; 121; (-27); 14;
       23; 19; 91; 23;
       13; (-21); 47; 55;
       72; (-12); 35; 28;
       91; 135; (-11); 14;
       53; 31; 109; 85;
       21; 44; 16; 68;
       49; (-1); 29; 1;
       79; 20; 161; 12;
       62; 17; 110; 148;
       22; 64; 22; 91; |]);
    ("int_incl", 4242, [|
       (-50); (-16); 9; 10;
       74; 74; (-41); 4;
       52; (-2); 120; (-37);
       (-14); (-15); 9; (-1);
       114; (-12); 8; (-12);
       1; 120; (-19); 7;
       8; 1; 77; 167;
       (-20); 40; 82; 75;
       112; (-10); 28; 77;
       84; 57; (-7); 23;
       64; 17; 51; 139;
       (-4); 18; 77; 70;
       153; 7; 30; 68;
       69; 38; 125; 40;
       65; 16; 11; 174;
       26; 12; 93; 134; |]);
    ("log_uniform_int", 0, [|
       1; 10; 36; 5;
       5; 11; 3; 90;
       4; 6; 206; 28;
       3; 14; 40; 6385;
       2; 6; 86; 5559;
       1; 5; 51; 9246;
       5; 1; 380; 22203;
       4; 10; 615; 70;
       3; 12; 105; 116;
       2; 4; 134; 50465;
       1; 11; 10; 6;
       5; 1; 330; 218;
       4; 6; 5; 209;
       3; 6; 78; 2;
       2; 3; 5; 13391;
       1; 11; 12; 255; |]);
    ("log_uniform_int", 42, [|
       1; 8; 7; 67;
       5; 2; 2; 25352;
       4; 6; 252; 79;
       3; 9; 14; 291;
       2; 6; 70; 3629;
       1; 2; 5; 604;
       5; 1; 145; 64121;
       4; 5; 63; 1635;
       3; 4; 21; 5127;
       2; 10; 729; 4838;
       1; 8; 397; 2805;
       5; 6; 105; 157;
       4; 5; 6; 7549;
       3; 4; 83; 6;
       2; 4; 289; 3744;
       1; 3; 4; 16; |]);
    ("log_uniform_int", 4242, [|
       1; 9; 24; 157;
       5; 5; 7; 82363;
       4; 12; 153; 5567;
       3; 7; 236; 5;
       2; 3; 14; 2991;
       1; 6; 295; 28475;
       5; 11; 2; 3776;
       4; 14; 131; 242;
       3; 6; 7; 3536;
       2; 12; 71; 5614;
       1; 2; 3; 26;
       5; 1; 19; 86;
       4; 15; 3; 60;
       3; 6; 165; 4;
       2; 3; 16; 467;
       1; 10; 47; 4; |]);
  ]

let floats =
  [
    ("float", 0, [|
       0x1.c4415072f63b9p-1; 0x1.142d8c0a944f7p+0; 0x1.9d07161c5eb49p+14; 0x1.f1177150e499p-1;
       0x1.103f5e2730946p-2; 0x1.3fa770e8f3245p+18; 0x1.6414d5f0fa298p-3; 0x1.edca3012f6b8ap+0;
       0x1.dfdc797397eabp+17; 0x1.e77091186d196p-1; 0x1.fb7aa0522f762p-1; 0x1.73994d7df9389p+19;
       0x1.0c43407fc177bp-1; 0x1.634ea555fc92ap+0; 0x1.59cfcab62fb5ap+19; 0x1.09767f2f2e3bp-1;
       0x1.38e7c5e7254d2p+0; 0x1.7579d6354f774p+19; 0x1.a3374d041c8a4p-3; 0x1.0e21307630d5ap+1;
       0x1.a1b837b522b2ap+19; 0x1.52071524304bep-1; 0x1.29736e4f513cbp+1; 0x1.4187509dd0b7bp+18;
       0x1.baf803a9ea80ep-1; 0x1.706c475ca43ebp+0; 0x1.9349a9c937386p+18; 0x1.034a7ad5f7874p-2;
       0x1.97598a2d42e6fp+0; 0x1.c68f8f48f77f8p+19; 0x1.e2d2a5dce5e68p-1; 0x1.15720d594c74p-1;
       0x1.7d385b53daabbp+15; 0x1.560b4dc446bp-6; 0x1.06e9912730053p+1; 0x1.9204f2a8f5b01p+18;
       0x1.05fbe586076a8p-2; 0x1.2d2d483285004p-1; 0x1.a3ff64c6ce1c7p+18; 0x1.3ea7e9cc92144p-2;
       0x1.4c4c2ad3a2ee6p+0; 0x1.26a6e7b57dbd5p+16; 0x1.f724c2cc089ep-6; 0x1.7701b13cc2062p-3;
       0x1.852645c96c591p+19; 0x1.d9dccac614d23p-1; 0x1.38989f774f386p-1; 0x1.90c3a25b1dc1p+18;
       0x1.dd18575ec687cp-2; 0x1.5b01476319192p-2; 0x1.b29efaf214d13p+19; 0x1.be4d15bd6ca26p-1;
       0x1.45f932864a20bp-2; 0x1.d48024ece8cb3p+13; 0x1.92a58ac400878p-1; 0x1.83bf8d7a4ac5ap+0;
       0x1.6f5803b8686e5p+17; 0x1.9e8914b105772p-1; 0x1.31ced713feba9p+1; 0x1.6df673f009085p+19;
       0x1.daf2805a3ab8bp-1; 0x1.adb233578fabbp-1; 0x1.d90a9dc58ff3fp+17; 0x1.c4ab646f71763p-1; |]);
    ("float", 42, [|
       0x1.7bae644c5fd6dp-1; 0x1.995ee004f8056p-2; 0x1.1012485619a63p+18; 0x1.607387fc392b8p-2;
       0x1.856dce15ab45p-4; 0x1.a7f0827311b6ap+19; 0x1.bf4b38e229bb4p-3; 0x1.0033c36a4645bp+1;
       0x1.4bf6c27d9dd0bp+18; 0x1.3ca9ae7052feep-1; 0x1.06463b7454c78p-1; 0x1.e16f4be40f6bfp+18;
       0x1.06dbdb12fe7c8p-1; 0x1.4ccefaa033d18p+0; 0x1.44c8ed25456a3p+19; 0x1.a0a2962a6be18p-3;
       0x1.0926693d81b33p-2; 0x1.e3e2aa1f1e012p+18; 0x1.7eadff448a868p-4; 0x1.b8ecf941679edp+0;
       0x1.d371a79aec777p+19; 0x1.2b3a6dd261f68p-4; 0x1.7fe1e73a81f92p+0; 0x1.2ea5611de4b66p+19;
       0x1.2fc33f229b7b8p-4; 0x1.634947715fd46p-1; 0x1.6a4b69c9b198p+19; 0x1.922cfc331f733p-1;
       0x1.2d6aafbe413a8p+1; 0x1.52f43260d68fep+19; 0x1.946edb428427bp-1; 0x1.0cf71c36e4c47p+1;
       0x1.3bf6d404f3fe7p+19; 0x1.9076ca047796fp-1; 0x1.9804c73f781bep+0; 0x1.731db796d9debp+18;
       0x1.02267f0f38c5p-4; 0x1.548c30d937d14p-1; 0x1.73aea3d842123p+19; 0x1.78b25ac7ebbd8p-4;
       0x1.535cd66191086p+0; 0x1.36a7747b8b72fp+17; 0x1.179e33d3f8ccap-2; 0x1.efdc777d169bap+0;
       0x1.4650d4900fab5p+19; 0x1.491acc53b3562p-2; 0x1.b08bf48439cb8p-3; 0x1.1652f32b99882p+17;
       0x1.027e79267d42bp-1; 0x1.3632e44df12cbp+1; 0x1.6789ac013fb79p+18; 0x1.820af4535f4a8p-3;
       0x1.8b10dcec41f99p-2; 0x1.38a5f71b2d759p+18; 0x1.ab41c147277ep-6; 0x1.073363ac108cp+1;
       0x1.4dd88fb89b182p+19; 0x1.1ca771b400b3dp-1; 0x1.180b70570e942p+1; 0x1.f811204c4fdb2p+14;
       0x1.095dff3bd15c4p-2; 0x1.34bca2ce09776p+1; 0x1.299cfb730453p+19; 0x1.6fb97a853417p-5; |]);
    ("float", 4242, [|
       0x1.ae9eded997404p-1; 0x1.cb4909b8a9781p-1; 0x1.6262ef4cdf7c8p+18; 0x1.65a68b354384p-1;
       0x1.0b1a203bca9cp-1; 0x1.df2ea4e6cd388p+19; 0x1.844f351edeca4p-1; 0x1.d27dfb591adb8p+0;
       0x1.65ef9298e0618p+19; 0x1.b31f67c9081cap-2; 0x1.d169c85edde97p+0; 0x1.1d59e209150bap+17;
       0x1.1110b47cbb19cp-3; 0x1.249397fbf287p-1; 0x1.3b403838e320dp+19; 0x1.4b805684a6fdfp-1;
       0x1.f9606feaa2c01p+0; 0x1.abb66b6398975p+19; 0x1.f5ce4ad0a4607p-1; 0x1.ff4642daa299p-5;
       0x1.4ea94c067fcd8p+19; 0x1.e1cc5c2534a77p-1; 0x1.c3b7db7c72e4ep+0; 0x1.b120e5424039fp+18;
       0x1.50d82c07a6bfap-2; 0x1.b9b7b05e76c6ap-3; 0x1.5a89ee92bc4b4p+19; 0x1.d146514410f1fp-1;
       0x1.4e3c203114104p+0; 0x1.5a4bfbb844085p+19; 0x1.4f6bbca28b254p-3; 0x1.2c154f8ab074p-5;
       0x1.6cfebe1f7878cp+17; 0x1.5536bd1a87fep-5; 0x1.d4ab0d6f42caep-1; 0x1.3b59e0ff1b048p+18;
       0x1.f411c5ceb67e6p-1; 0x1.b0415d548742fp-2; 0x1.32fc55ea859c4p+18; 0x1.421ebf449330ap-2;
       0x1.a6069aeb881a1p+0; 0x1.015a8308b414bp+17; 0x1.55c16f3e2df24p-3; 0x1.4305cc4416c9p-1;
       0x1.bf6bd67da5422p+18; 0x1.d223e00a657b4p-1; 0x1.2ef71e8f5e6fcp+0; 0x1.4f0e63850f7dap+14;
       0x1.26367a67b6298p-1; 0x1.8997adb21f146p+0; 0x1.bc5009b7d2a81p+16; 0x1.b80a99fa7606p-4;
       0x1.dca530f2bd613p+0; 0x1.9c4c48ee003d8p+17; 0x1.2f2ba901858ap-1; 0x1.9b1b39263040ep+0;
       0x1.0583a6f4959b8p+18; 0x1.7382602baeda3p-1; 0x1.e186e5c82ce4ep-1; 0x1.8673a96b80f2ep+19;
       0x1.ed03dbfe37841p-1; 0x1.9db1eb26e102cp+0; 0x1.de79beca5be23p+17; 0x1.8f6bb6ce5dd78p-1; |]);
    ("exponential", 0, [|
       0x1.12f992a7286f1p+1; 0x1.212de30b98d79p+0; 0x1.49303ebf75f45p-4; 0x1.c4a8b07657ddep+3;
       0x1.1fd6f5a305bd4p-1; 0x1.3081ea3332afp+1; 0x1.5645e258d81bfp+0; 0x1.79f6d8d81b654p+3;
       0x1.44ce930fa05d2p+1; 0x1.e5f3760ed96b2p+4; 0x1.637d38c575e46p+2; 0x1.12d5ee36c4524p+4;
       0x1.34c4e9abbf50dp+3; 0x1.6ae7e02293a2p+3; 0x1.279f87bc209f5p+4; 0x1.762cff251838ep+3;
       0x1.6d2497b1b2a1bp+3; 0x1.a0ec9cb6c4ce3p+4; 0x1.16801f07f1c04p+2; 0x1.296c4f33edc4dp+5;
       0x1.44fae170ad43cp+5; 0x1.7bf572553843p+4; 0x1.e8154aae3c52ep+5; 0x1.32b3be5266e36p+3;
       0x1.90c0d37995e45p+5; 0x1.649abfefd1228p+4; 0x1.cc3ae38fcffb1p+3; 0x1.059c5e3bfd0fp+3;
       0x1.d589543ee864dp+4; 0x1.40bc005b204aap+6; 0x1.63409bd17507ep+6; 0x1.f45832f28099ep+2;
       0x1.a6a09c59ea853p+0; 0x1.6f44e28dd278cp-1; 0x1.e2a538b74b01ap+5; 0x1.318c0701ed699p+4;
       0x1.5de0826e27238p+3; 0x1.4635a318c8c67p+3; 0x1.5ed8ddcec6a1ap+4; 0x1.dd2a88a39a38p+3;
       0x1.e0696329c9e84p+4; 0x1.a5a04eee1d685p+1; 0x1.57595ab4fa042p+0; 0x1.ac650b2d71ad3p+1;
       0x1.1effe110f648cp+6; 0x1.dddf0312877efp+6; 0x1.a51e785e1aa22p+3; 0x1.95b8556f678e4p+4;
       0x1.ebb8ea6237884p+4; 0x1.d21d0b681ce06p+2; 0x1.c27a0c7cea38bp+6; 0x1.ab1310685946ap+6;
       0x1.cdfefc9451fcfp+2; 0x1.a1a347b475ae6p-1; 0x1.539f73249fbcep+6; 0x1.a11b2ee24ed13p+5;
       0x1.7c096adf4a2b1p+3; 0x1.80d99867ff255p+6; 0x1.6fa543f6ad62cp+7; 0x1.4c391d1aac34p+6;
       0x1.405eb06c4eeedp+7; 0x1.95bfd65f68397p+4; 0x1.178d0047e0c0dp+4; 0x1.13dda183b6501p+7; |]);
    ("exponential", 42, [|
       0x1.5a6574c7543bcp+0; 0x1.64db768f3aec5p-2; 0x1.f599d3b5a36f4p-1; 0x1.b002b073625c3p+0;
       0x1.8d06f79c59a8cp-3; 0x1.851f821c1ca1ep+3; 0x1.b99520c4da013p+0; 0x1.9cd38110bf8b9p+3;
       0x1.de8dad8ad75dfp+1; 0x1.3459e696c8d0ap+3; 0x1.42d70299bda49p+1; 0x1.04d2551c8428cp+3;
       0x1.2ba596501b508p+3; 0x1.48d4a26f850e6p+3; 0x1.06958c3f40f95p+4; 0x1.d1cf910d8bbp+1;
       0x1.dbd8c7395b15fp+0; 0x1.8a17269d25ea1p+3; 0x1.dd152e9c79fc1p+0; 0x1.75b15a33824b2p+4;
       0x1.08f2ca1fcfcb6p+6; 0x1.ab3def67d7dbcp+0; 0x1.5106a9c10fe6ep+4; 0x1.735e9398430dbp+4;
       0x1.ed2674a6301d5p+0; 0x1.0e8253ff68c39p+3; 0x1.249e58fc0294cp+5; 0x1.58d5d211c9c56p+5;
       0x1.4a2499596fafep+6; 0x1.1c571485a25e3p+5; 0x1.82eead6f9c8b6p+5; 0x1.d5f7f3b9b8a5cp+5;
       0x1.12f8798568a1ap+5; 0x1.9e859812d0d0fp+5; 0x1.1c25abd66b42ep+5; 0x1.135eafa104e6ap+4;
       0x1.344eabd964d16p+1; 0x1.782186cd0588cp+3; 0x1.bed4b63cc59b6p+5; 0x1.edf315a7802f6p+1;
       0x1.efa64d635920cp+4; 0x1.d1a3aa435b9b6p+2; 0x1.b6d494418e415p+3; 0x1.065c97f0f9d36p+6;
       0x1.8d4350646c776p+5; 0x1.1d5ae0ed167c4p+4; 0x1.09804b748161dp+2; 0x1.d84728731b1b4p+2;
       0x1.138d2959fdd7cp+5; 0x1.5c94e244a81b8p+7; 0x1.76a659c522e11p+4; 0x1.5b8e52a4adf81p+3;
       0x1.1c476b35f93e8p+3; 0x1.4d67c58797477p+4; 0x1.740bd8d3b3105p+0; 0x1.83402cc1fa767p+6;
       0x1.06745b027580ap+6; 0x1.78b303ab4aba9p+5; 0x1.eb03112670d59p+6; 0x1.f7afd687bebd6p+0;
       0x1.24c14899ece4bp+4; 0x1.9f005bb41ad8p+7; 0x1.d9f0b571a67d6p+5; 0x1.783bbf5997b5ap+1; |]);
    ("exponential", 4242, [|
       0x1.d6d5f65ec5b88p+0; 0x1.c71b3b3368a03p-1; 0x1.5a39f84b3b648p+0; 0x1.32f8943248fb6p+2;
       0x1.2b93bc3da9ec6p+0; 0x1.7e57600208662p+4; 0x1.3e33864798407p+3; 0x1.4e248ba5cf3cep+3;
       0x1.7c5cd542437c8p+3; 0x1.62151f7b957eap+2; 0x1.c943a70e85f3ep+3; 0x1.e531c9efb346cp+0;
       0x1.dc3ca956f486p+0; 0x1.d10da75813721p+1; 0x1.f1f6b32dfd44p+3; 0x1.0ae7e8e22ec37p+4;
       0x1.a80b6eeeb9ff9p+4; 0x1.2c8b5c712e186p+5; 0x1.29a7971d7cb1fp+6; 0x1.02e1dd97f203bp-1;
       0x1.848dc2d679dd4p+4; 0x1.f227a9fff0da8p+5; 0x1.c24228eea9ed6p+4; 0x1.c225f1412a15p+3;
       0x1.3f20fd2b44101p+3; 0x1.2c43712cb95cp+1; 0x1.0b2a825e7ffdbp+5; 0x1.0c21de3ecded6p+6;
       0x1.56bbe8c06ff8ep+4; 0x1.287118af67ef9p+5; 0x1.62dd5539b10eep+2; 0x1.e3af7da9a647ap-2;
       0x1.b4eab3990c82ep+2; 0x1.724e6f33d29ebp+0; 0x1.fea69bf35f5ccp+3; 0x1.c13d656c15961p+3;
       0x1.162eaaa712197p+7; 0x1.c1c914110c047p+2; 0x1.d6fc7d7c91ecfp+3; 0x1.e377d9f46897p+3;
       0x1.6149378eb8231p+5; 0x1.7bcb982e36976p+2; 0x1.f66e0f340e317p+2; 0x1.997f1f272d1b2p+3;
       0x1.b934390c82442p+4; 0x1.bbf1703f09e01p+6; 0x1.e23e8a715acep+4; 0x1.0a5d7ab40d384p+0;
       0x1.4f15834550946p+5; 0x1.7dcae763acec3p+5; 0x1.8a20541199849p+2; 0x1.7a3c586b536c5p+2;
       0x1.217ecfa782a2cp+6; 0x1.99ba7a7af3813p+3; 0x1.8a984f2f2a45p+5; 0x1.cca36c51f71cfp+5;
       0x1.1c4298aac1b8ap+4; 0x1.2c04bc63a545p+6; 0x1.bd7ca82f0eec8p+4; 0x1.81d6ff0c77cbcp+6;
       0x1.91f36d6a54154p+7; 0x1.01d1241a4c56cp+6; 0x1.1b4229a91dadfp+4; 0x1.83c13c1d1fbcp+6; |]);
  ]

let int64_draw = function
  | "bits64" -> fun g _ -> Prng.bits64 g
  | "split" -> fun g _ -> Prng.bits64 (Prng.split g)
  | name -> invalid_arg name

let int_draw = function
  | "int" -> fun g i -> Prng.int g ~bound:(int_bound i)
  | "int_incl" ->
    fun g i ->
      let lo, hi = incl_range i in
      Prng.int_incl g ~lo ~hi
  | "log_uniform_int" ->
    fun g i ->
      let lo, hi = log_range i in
      Prng.log_uniform_int g ~lo ~hi
  | name -> invalid_arg name

let float_draw = function
  | "float" -> fun g i -> Prng.float g ~bound:(float_bound i)
  | "exponential" -> fun g i -> Prng.exponential g ~mean:(mean i)
  | name -> invalid_arg name

(* The first 64 draws from a fresh generator on [seed]. *)
let replay f seed = Array.init 64 (f (Prng.create ~seed))

let test_golden () =
  let label name seed = Printf.sprintf "%s, seed %d" name seed in
  List.iter
    (fun (name, seed, want) ->
      Alcotest.(check (array int64)) (label name seed) want (replay (int64_draw name) seed))
    int64s;
  List.iter
    (fun (name, seed, want) ->
      Alcotest.(check (array int)) (label name seed) want (replay (int_draw name) seed))
    ints;
  (* Bit patterns, so the comparison is exact. *)
  List.iter
    (fun (name, seed, want) ->
      Alcotest.(check (array int64)) (label name seed)
        (Array.map Int64.bits_of_float want)
        (Array.map Int64.bits_of_float (replay (float_draw name) seed)))
    floats;
  let covered = List.length int64s + List.length ints + List.length floats in
  Alcotest.(check int) "seven draws, three seeds each" (7 * List.length seeds) covered

(* [float] and [exponential] are exactly their documented formulas on
   [bits53]: the synthetic stream writes them out that way so that no
   float is boxed, and its digests depend on the equality. *)
let test_formulas_on_bits53 () =
  let u g = float_of_int (Prng.bits53 g) /. 0x1p53 in
  List.iter
    (fun seed ->
      let g = Prng.create ~seed in
      for i = 0 to 999 do
        let bound = float_bound i and mean = mean i in
        let h = Prng.copy g in
        let r = Prng.bits53 (Prng.copy g) in
        if r < 0 || r >= 1 lsl 53 then Alcotest.failf "bits53 out of range: %d" r;
        let want = Int64.bits_of_float (bound *. u h) in
        if Int64.bits_of_float (Prng.float g ~bound) <> want then
          Alcotest.failf "float differs at draw %d, seed %d" i seed;
        let h = Prng.copy g in
        let want = Int64.bits_of_float (-.mean *. log (1.0 -. u h)) in
        if Int64.bits_of_float (Prng.exponential g ~mean) <> want then
          Alcotest.failf "exponential differs at draw %d, seed %d" i seed
      done)
    seeds

let suite =
  [
    Alcotest.test_case "same seed, same stream" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_seed_sensitivity;
    Alcotest.test_case "int stays in range" `Quick test_int_range;
    Alcotest.test_case "int_incl stays in range" `Quick test_int_incl_range;
    Alcotest.test_case "int_incl degenerate range" `Quick test_int_incl_degenerate;
    Alcotest.test_case "int covers all values" `Quick test_int_covers_all_values;
    Alcotest.test_case "float stays in range" `Quick test_float_range;
    Alcotest.test_case "bool produces both values" `Quick test_bool_both;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
    Alcotest.test_case "copy is an exact clone" `Quick test_copy_independent;
    Alcotest.test_case "split decorrelates" `Quick test_split_independent;
    Alcotest.test_case "exponential is non-negative" `Quick test_exponential_positive;
    Alcotest.test_case "exponential has the right mean" `Slow test_exponential_mean;
    Alcotest.test_case "log_uniform_int stays in bounds" `Quick test_log_uniform_bounds;
    Alcotest.test_case "log_uniform_int is log-skewed" `Slow test_log_uniform_skew;
    Alcotest.test_case "invalid arguments are rejected" `Quick test_invalid_args;
    Alcotest.test_case "golden vectors of every draw" `Quick test_golden;
    Alcotest.test_case "float and exponential are formulas on bits53" `Quick
      test_formulas_on_bits53;
  ]
