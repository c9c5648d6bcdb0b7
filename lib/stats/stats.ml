let require_nonempty name = function
  | [] -> invalid_arg (Printf.sprintf "Repro_stats.Stats.%s: empty list" name)
  | xs -> xs

let mean xs =
  let xs = require_nonempty "mean" xs in
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let mean_arr xs =
  if Array.length xs = 0 then invalid_arg "Repro_stats.Stats.mean_arr: empty array";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let stddev xs =
  let xs = require_nonempty "stddev" xs in
  let m = mean xs in
  let var = mean (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
  sqrt var

let sorted xs = List.sort Float.compare xs

let minimum xs = List.fold_left Float.min infinity (require_nonempty "minimum" xs)
let maximum xs = List.fold_left Float.max neg_infinity (require_nonempty "maximum" xs)

let percentile_sorted q arr =
  if q < 0. || q > 100. then invalid_arg "Repro_stats.Stats.percentile: q outside [0,100]";
  let n = Array.length arr in
  if n = 0 then invalid_arg "Repro_stats.Stats.percentile: empty input"
  else if n = 1 then arr.(0)
  else begin
    let rank = q /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Int.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))
  end

let percentile q xs = percentile_sorted q (Array.of_list (sorted xs))

let abs_pct_error ~reference estimate =
  if reference = 0. then invalid_arg "Repro_stats.Stats.abs_pct_error: zero reference";
  100. *. Float.abs (estimate -. reference) /. Float.abs reference

type accumulator = {
  mutable n : int;
  mutable sum : float;
  mutable max_v : float;
  mutable min_v : float;
}

let accumulator () = { n = 0; sum = 0.; max_v = neg_infinity; min_v = infinity }

let add acc x =
  acc.n <- acc.n + 1;
  acc.sum <- acc.sum +. x;
  if x > acc.max_v then acc.max_v <- x;
  if x < acc.min_v then acc.min_v <- x

let count acc = acc.n

let acc_mean acc =
  if acc.n = 0 then invalid_arg "Repro_stats.Stats.acc_mean: empty accumulator";
  acc.sum /. float_of_int acc.n

let acc_max acc = acc.max_v
let acc_min acc = acc.min_v
