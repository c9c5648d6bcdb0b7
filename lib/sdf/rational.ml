type t = { num : int; den : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let lcm a b = if a = 0 || b = 0 then 0 else abs (a / gcd a b * b)

let make num den =
  if den = 0 then raise Division_by_zero;
  let s = if den < 0 then -1 else 1 in
  let num = s * num and den = s * den in
  let g = gcd num den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let one = of_int 1

let mul a b = make (a.num * b.num) (a.den * b.den)
let inv a = if a.num = 0 then raise Division_by_zero else make a.den a.num

let equal a b = a.num = b.num && a.den = b.den

let to_float a = float_of_int a.num /. float_of_int a.den

let to_int_exn a =
  if a.den = 1 then a.num
  else invalid_arg (Printf.sprintf "Rational.to_int_exn: %d/%d" a.num a.den)

let to_string a =
  if a.den = 1 then string_of_int a.num else Printf.sprintf "%d/%d" a.num a.den
