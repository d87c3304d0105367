(* SplitMix64 state, unboxed: eight bytes read and written as one
   little-endian int64. A [mutable int64] field would box a fresh state at
   every step; here [bits64] and its callers inside this module keep the
   state and the output in registers once inlined, so an integer draw
   allocates nothing and a float draw only its boxed result. A caller that
   must not box one writes the float formula out on [bits53]. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 s;
  g

let create ~seed = of_state (Int64.of_int seed)

let copy g = Bytes.copy g

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 g =
  let s = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 s;
  mix s

let split g =
  let s = bits64 g in
  of_state (mix (Int64.logxor s 0xA5A5A5A5A5A5A5A5L))

(* Rejection sampling against modulo bias, as a top-level loop so a call
   builds no closure. The threshold [max_int lsr 1] discards every draw at
   or above 2^61, about half of the 62-bit draws, where one at the top of
   the range would keep nearly all of them. It is kept on purpose: moving
   it would change the stream drawn from every seed, and with it every
   table and digest computed from one. *)
let rec draw g bound =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  let v = r mod bound in
  if r - v > (max_int lsr 1) - bound + 1 then draw g bound else v

let int g ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw g bound

let int_incl g ~lo ~hi =
  if lo > hi then invalid_arg "Prng.int_incl: lo > hi";
  lo + int g ~bound:(hi - lo + 1)

let[@inline] bits53 g = Int64.to_int (Int64.shift_right_logical (bits64 g) 11)

let[@inline] float g ~bound = bound *. (float_of_int (bits53 g) /. 0x1p53)

let bool g = Int64.logand (bits64 g) 1L = 1L

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential g ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. float g ~bound:1.0 in
  -.mean *. log u

let log_uniform_int g ~lo ~hi =
  if lo < 1 || lo > hi then invalid_arg "Prng.log_uniform_int: need 1 <= lo <= hi";
  if lo = hi then lo
  else begin
    let llo = log (Stdlib.float_of_int lo) and lhi = log (Stdlib.float_of_int (hi + 1)) in
    let x = exp (llo +. float g ~bound:(lhi -. llo)) in
    let v = int_of_float x in
    max lo (min hi v)
  end
