type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finaliser (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Sdfgen.Rng.int: bound <= 0";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Sdfgen.Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Sdfgen.Rng.pick: empty array";
  arr.(int t (Array.length arr))
