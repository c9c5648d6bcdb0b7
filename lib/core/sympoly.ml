let all xs =
  let n = Array.length xs in
  let e = Array.make (n + 1) 0. in
  e.(0) <- 1.;
  Array.iteri
    (fun i x ->
      (* After folding x_0..x_i, e.(j) holds e_j of those elements; update
         from high to low degree so each x is counted once. *)
      for j = i + 1 downto 1 do
        e.(j) <- e.(j) +. (x *. e.(j - 1))
      done)
    xs;
  e

let up_to k xs =
  let n = Array.length xs in
  let k = Int.min k n in
  let e = Array.make (k + 1) 0. in
  e.(0) <- 1.;
  Array.iteri
    (fun i x ->
      for j = Int.min k (i + 1) downto 1 do
        e.(j) <- e.(j) +. (x *. e.(j - 1))
      done)
    xs;
  e

(* ------------------------------------------------------------------ *)
(* Allocation-free primitives shared with {!Kernel}.  Every function below
   takes arrays plus integer indices (never raw floats) so callers on the
   zero-allocation hot path pass values without boxing them at the call
   boundary, and none of them allocates itself. *)

(* The deconvolution e'_j = e_j - x e'_(j-1) loses precision exactly when the
   subtraction cancels: the remaining coefficient is orders of magnitude below
   the full one (e.g. removing x = 1 from a basis whose co-elements are ~1e-12
   leaves e'_j ~1e-12 computed as a difference of ~1 terms).  Flag a result
   once it has lost this many decimal digits — or turned negative, which is
   impossible for non-negative inputs — and recompute from scratch instead. *)
let cancellation_tolerance = 1e-8

let deconvolve_into ~es ~xs ~skip ~out ~n =
  if n > 0 then begin
    out.(0) <- 1.;
    let x = xs.(skip) in
    for j = 1 to n - 1 do
      out.(j) <- es.(j) -. (x *. out.(j - 1))
    done
  end

(* Coefficients this far below the (monic, e_0 = 1) basis are underflow
   beyond the distribution's support, not cancellation: a large population
   of small probabilities drives deep-degree coefficients to (sub)denormal
   range, where the recurrence leaves epsilon-negative garbage that
   contributes nothing to any downstream waiting sum (and the recurrence
   multiplier x <= 1 keeps the garbage bounded). *)
let underflow_floor = 1e-12

let rec deconv_stable_from ~es ~out ~n j =
  j >= n
  || ((es.(j) <= underflow_floor && Float.abs out.(j) <= underflow_floor)
      || (out.(j) >= 0. && out.(j) >= cancellation_tolerance *. es.(j)))
     && deconv_stable_from ~es ~out ~n (j + 1)

let deconv_stable ~es ~out ~n = deconv_stable_from ~es ~out ~n 1

(* Recompute-from-scratch fallback: the full basis of xs.(0..m-1) minus
   xs.(skip), by the same Newton recurrence as {!all} (bit-identical to
   [all] of a compacted copy).  [out] needs room for degrees 0..m-1. *)
let refold_skip_into ~xs ~m ~skip ~out =
  for j = 0 to m - 1 do
    out.(j) <- 0.
  done;
  out.(0) <- 1.;
  for i = 0 to m - 1 do
    if i <> skip then begin
      (* Fold position of element i in the compacted sequence. *)
      let pos = if i < skip then i else i - 1 in
      let x = xs.(i) in
      for j = pos + 1 downto 1 do
        out.(j) <- out.(j) +. (x *. out.(j - 1))
      done
    end
  done

(* Truncated variant (degrees 0..k), mirroring {!up_to}. *)
let refold_trunc_into ~xs ~m ~skip ~k ~out =
  for j = 0 to k do
    out.(j) <- 0.
  done;
  out.(0) <- 1.;
  for i = 0 to m - 1 do
    if i <> skip then begin
      let pos = if i < skip then i else i - 1 in
      let x = xs.(i) in
      for j = Int.min k (pos + 1) downto 1 do
        out.(j) <- out.(j) +. (x *. out.(j - 1))
      done
    end
  done

let remove ~xs ~skip es =
  let m = Array.length xs in
  if skip < 0 || skip >= m then invalid_arg "Contention.Sympoly.remove: bad index";
  if Array.length es <> m + 1 then
    invalid_arg "Contention.Sympoly.remove: basis/elements mismatch";
  let out = Array.make m 0. in
  deconvolve_into ~es ~xs ~skip ~out ~n:m;
  if not (deconv_stable ~es ~out ~n:m) then refold_skip_into ~xs ~m ~skip ~out;
  out
