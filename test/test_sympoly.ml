open Contention

let test_known_values () =
  let es = Sympoly.all [| 1.; 2.; 3. |] in
  Alcotest.(check (array (float 1e-9))) "e of {1,2,3}" [| 1.; 6.; 11.; 6. |] es

let test_empty () =
  Alcotest.(check (array (float 1e-9))) "empty" [| 1. |] (Sympoly.all [||]);
  Alcotest.(check (array (float 1e-9))) "up_to empty" [| 1. |] (Sympoly.up_to 3 [||])

let test_up_to_truncation () =
  let xs = [| 0.1; 0.2; 0.3; 0.4 |] in
  let full = Sympoly.all xs in
  let trunc = Sympoly.up_to 2 xs in
  Alcotest.(check int) "length" 3 (Array.length trunc);
  for j = 0 to 2 do
    Fixtures.check_float "prefix agrees" full.(j) trunc.(j)
  done;
  (* up_to beyond n clamps. *)
  Alcotest.(check int) "clamped" 5 (Array.length (Sympoly.up_to 99 xs))

(* The oracle: [e_j(xs)] by its subset-sum definition, exponential. *)
let brute_force j xs =
  if j < 0 then invalid_arg "brute_force: negative degree";
  let n = Array.length xs in
  let rec go idx remaining =
    if remaining = 0 then 1.
    else if idx >= n || n - idx < remaining then 0.
    else (xs.(idx) *. go (idx + 1) (remaining - 1)) +. go (idx + 1) remaining
  in
  go 0 j

let test_brute_force_small () =
  Fixtures.check_float "e_2 {1,2,3}" 11. (brute_force 2 [| 1.; 2.; 3. |]);
  Fixtures.check_float "e_0" 1. (brute_force 0 [| 1.; 2. |]);
  Fixtures.check_float "degree beyond n" 0. (brute_force 3 [| 1.; 2. |]);
  match brute_force (-1) [| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative degree accepted"

let probs_gen =
  QCheck2.Gen.(list_size (int_range 0 8) (float_bound_inclusive 1.))

let prop_matches_brute_force =
  Fixtures.qcheck_case "all = brute force" probs_gen (fun xs ->
      let arr = Array.of_list xs in
      let es = Sympoly.all arr in
      Array.for_all Fun.id
        (Array.mapi (fun j e -> Fixtures.float_eq ~eps:1e-9 (brute_force j arr) e) es))

let prop_sum_bound =
  (* For probabilities, e_1 = sum and all e_j are non-negative. *)
  Fixtures.qcheck_case "non-negative on probabilities" probs_gen (fun xs ->
      let es = Sympoly.all (Array.of_list xs) in
      Array.for_all (fun e -> e >= -1e-12) es)

let bit_identical what expected got =
  Alcotest.(check int) (what ^ ": length") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun j e ->
      if not (Float.equal e got.(j)) then
        Alcotest.failf "%s: degree %d: expected %.17g, got %.17g" what j e
          got.(j))
    expected

(* The unguarded recurrence, for showing what the guard catches. *)
let raw_remove ~xs ~skip es =
  let out = Array.make (Array.length xs) 0. in
  Sympoly.deconvolve_into ~es ~xs ~skip ~out ~n:(Array.length xs);
  out

let test_remove_near_cancellation () =
  (* The adversarial case for the raw deconvolution: removing an element
     close to 1 whose co-elements are many orders of magnitude smaller wipes
     out every significant digit of [e_j - x e'_(j-1)].  The guarded remove
     must detect the cancellation and recompute — bit-identical to [all] of
     the survivors. *)
  let xs = [| 0.9999999999; 1e-9; 3e-10; 1e-9 |] in
  let es = Sympoly.all xs in
  let expected = Sympoly.all [| 1e-9; 3e-10; 1e-9 |] in
  bit_identical "near 1" expected (Sympoly.remove ~xs ~skip:0 es);
  (* The raw primitive really is unstable here — the guard is not vacuous. *)
  let raw = raw_remove ~xs ~skip:0 es in
  let drift =
    Float.abs (raw.(2) -. expected.(2)) /. Float.max epsilon_float expected.(2)
  in
  if drift < 1e-4 then
    Alcotest.failf "unguarded deconvolution unexpectedly accurate (drift %g)" drift;
  (* Here the raw result goes negative, which the sign check alone catches.
     Removing 1 - 1e-12 beside 1e-9 and 2e-9 keeps every raw coefficient
     positive (e'_2 = 8.7e-17 against a true 2e-18), so only the digit-loss
     tolerance catches it: e'_1 = 3e-9 is under 1e-8 of e_1 ~ 1. *)
  let xs = [| 1. -. 1e-12; 1e-9; 2e-9 |] in
  let es = Sympoly.all xs in
  let raw = raw_remove ~xs ~skip:0 es in
  if not (Array.for_all (fun e -> e > 0.) raw) then
    Alcotest.fail "raw deconvolution went negative: the sign check would do";
  bit_identical "positive cancellation" (Sympoly.all [| 1e-9; 2e-9 |])
    (Sympoly.remove ~xs ~skip:0 es)

let test_remove_stable_path () =
  (* Away from cancellation the O(n) deconvolution is used and stays within
     roundoff of the direct rebuild. *)
  let xs = [| 0.3; 0.5; 0.7; 0.2 |] in
  let removed = Sympoly.remove ~xs ~skip:1 (Sympoly.all xs) in
  let expected = Sympoly.all [| 0.3; 0.7; 0.2 |] in
  Array.iteri
    (fun j e -> Fixtures.check_float ~eps:1e-12 "stable remove" e removed.(j))
    expected;
  (* 200 small probabilities: the basis falls below 1e-12 after degree ~20,
     and the raw deconvolution leaves epsilon-negative garbage in those deep
     degrees (2,741 coefficients over the 200 removals).  That is underflow,
     not cancellation, so the guard must keep the O(n) result for every
     removal; reading it as cancellation would turn each removal into an
     O(n²) refold. *)
  let m = 200 in
  let xs =
    Array.init m (fun i -> 0.01 *. (1. +. (0.01 *. float_of_int (i mod 7))))
  in
  let es = Sympoly.all xs in
  let negatives = ref 0 and fallbacks = ref 0 in
  for skip = 0 to m - 1 do
    let raw = raw_remove ~xs ~skip es in
    Array.iter (fun e -> if e < 0. then incr negatives) raw;
    if not (Sympoly.deconv_stable ~es ~out:raw ~n:m) then incr fallbacks;
    let survivors = List.filteri (fun i _ -> i <> skip) (Array.to_list xs) in
    let expected = Sympoly.all (Array.of_list survivors) in
    let removed = Sympoly.remove ~xs ~skip es in
    Array.iteri
      (fun j e ->
        if not (Fixtures.float_eq ~eps:1e-12 e removed.(j)) then
          Alcotest.failf "skip %d degree %d: expected %.17g, got %.17g" skip j e
            removed.(j))
      expected
  done;
  if !negatives = 0 then
    Alcotest.fail "no negative deep coefficient: the case no longer underflows";
  Alcotest.(check int) "removals that fell back" 0 !fallbacks

let extreme_probs_gen =
  (* Mixed magnitudes: the regime where deconvolution goes unstable. *)
  QCheck2.Gen.(
    list_size (int_range 1 7)
      (oneof
         [
           float_range 0.9 1.0;
           float_range 0. 1e-8;
           float_bound_inclusive 1.;
         ]))

let prop_remove_any_index =
  (* Also the truncated fallback, bit for bit against [up_to] of the
     survivors: the kernel's order-m evaluator and {!Approx} share
     [refold_trunc_into], so comparing those two cannot catch a fault in it. *)
  Fixtures.qcheck_case "guarded remove = rebuild, adversarial magnitudes"
    extreme_probs_gen
    (fun xs ->
      let arr = Array.of_list xs in
      let m = Array.length arr in
      let es = Sympoly.all arr in
      let out = Array.make (m + 1) 0. in
      List.for_all
        (fun skip ->
          let removed = Sympoly.remove ~xs:arr ~skip es in
          let survivors =
            Array.of_list (List.filteri (fun i _ -> i <> skip) xs)
          in
          let expected = Sympoly.all survivors in
          Array.for_all2
            (fun a b -> Fixtures.float_eq ~eps:1e-9 a b)
            expected removed
          && List.for_all
               (fun k ->
                 Sympoly.refold_trunc_into ~xs:arr ~m ~skip ~k ~out;
                 let trunc = Sympoly.up_to k survivors in
                 Array.for_all Fun.id
                   (Array.mapi (fun j e -> Float.equal e out.(j)) trunc))
               (List.init (m + 1) Fun.id))
        (List.init m Fun.id))

let suite =
  [
    Alcotest.test_case "known values" `Quick test_known_values;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "up_to truncation" `Quick test_up_to_truncation;
    Alcotest.test_case "brute force" `Quick test_brute_force_small;
    prop_matches_brute_force;
    prop_sum_bound;
    Alcotest.test_case "remove near cancellation" `Quick test_remove_near_cancellation;
    Alcotest.test_case "remove stable path" `Quick test_remove_stable_path;
    prop_remove_any_index;
  ]
