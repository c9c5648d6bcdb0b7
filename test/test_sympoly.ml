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

let test_without () =
  let xs = [| 0.3; 0.5; 0.7 |] in
  let es = Sympoly.all xs in
  let no_mid = Sympoly.without es 0.5 in
  let expected = Sympoly.all [| 0.3; 0.7 |] in
  Alcotest.(check int) "length" (Array.length expected) (Array.length no_mid);
  Array.iteri (fun j e -> Fixtures.check_float "deconvolution" e no_mid.(j)) expected

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

let prop_without_roundtrip =
  Fixtures.qcheck_case "without inverts extension"
    QCheck2.Gen.(pair probs_gen (float_bound_inclusive 1.))
    (fun (xs, x) ->
      let arr = Array.of_list xs in
      let extended = Array.append arr [| x |] in
      let removed = Sympoly.without (Sympoly.all extended) x in
      let direct = Sympoly.all arr in
      Array.length removed = Array.length direct
      && Array.for_all Fun.id
           (Array.mapi (fun j e -> Fixtures.float_eq ~eps:1e-7 direct.(j) e) removed))

let prop_sum_bound =
  (* For probabilities, e_1 = sum and all e_j are non-negative. *)
  Fixtures.qcheck_case "non-negative on probabilities" probs_gen (fun xs ->
      let es = Sympoly.all (Array.of_list xs) in
      Array.for_all (fun e -> e >= -1e-12) es)

let test_remove_near_cancellation () =
  (* The adversarial case for the raw deconvolution: removing an element
     close to 1 whose co-elements are many orders of magnitude smaller wipes
     out every significant digit of [e_j - x e'_(j-1)].  The guarded remove
     must detect the cancellation and recompute — bit-identical to [all] of
     the survivors. *)
  let xs = [| 0.9999999999; 1e-9; 3e-10; 1e-9 |] in
  let es = Sympoly.all xs in
  let removed = Sympoly.remove ~xs ~skip:0 es in
  let expected = Sympoly.all [| 1e-9; 3e-10; 1e-9 |] in
  Alcotest.(check int) "length" (Array.length expected) (Array.length removed);
  Array.iteri
    (fun j e ->
      if not (Float.equal e removed.(j)) then
        Alcotest.failf "degree %d: expected %.17g, got %.17g" j e removed.(j))
    expected;
  (* The raw primitive really is unstable here — the guard is not vacuous. *)
  let raw = Sympoly.without es 0.9999999999 in
  let drift =
    Float.abs (raw.(2) -. expected.(2)) /. Float.max epsilon_float expected.(2)
  in
  if drift < 1e-4 then
    Alcotest.failf "unguarded deconvolution unexpectedly accurate (drift %g)" drift

let test_remove_stable_path () =
  (* Away from cancellation the O(n) deconvolution is used and stays within
     roundoff of the direct rebuild. *)
  let xs = [| 0.3; 0.5; 0.7; 0.2 |] in
  let removed = Sympoly.remove ~xs ~skip:1 (Sympoly.all xs) in
  let expected = Sympoly.all [| 0.3; 0.7; 0.2 |] in
  Array.iteri
    (fun j e -> Fixtures.check_float ~eps:1e-12 "stable remove" e removed.(j))
    expected

let test_fold_in_roundtrip () =
  let xs = [| 0.4; 0.9; 0.1 |] in
  let folded = Sympoly.fold_in (Sympoly.all xs) 0.6 in
  let direct = Sympoly.all [| 0.4; 0.9; 0.1; 0.6 |] in
  Alcotest.(check int) "length" (Array.length direct) (Array.length folded);
  Array.iteri
    (fun j e ->
      if not (Float.equal e folded.(j)) then
        Alcotest.failf "fold_in degree %d: expected %.17g, got %.17g" j e folded.(j))
    direct;
  match Sympoly.fold_in [||] 0.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty basis accepted"

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
  Fixtures.qcheck_case "guarded remove = rebuild, adversarial magnitudes"
    extreme_probs_gen
    (fun xs ->
      let arr = Array.of_list xs in
      let es = Sympoly.all arr in
      List.for_all
        (fun skip ->
          let removed = Sympoly.remove ~xs:arr ~skip es in
          let survivors =
            Array.of_list (List.filteri (fun i _ -> i <> skip) xs)
          in
          let expected = Sympoly.all survivors in
          Array.for_all2
            (fun a b -> Fixtures.float_eq ~eps:1e-9 a b)
            expected removed)
        (List.init (Array.length arr) Fun.id))

let suite =
  [
    Alcotest.test_case "known values" `Quick test_known_values;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "up_to truncation" `Quick test_up_to_truncation;
    Alcotest.test_case "without" `Quick test_without;
    Alcotest.test_case "brute force" `Quick test_brute_force_small;
    prop_matches_brute_force;
    prop_without_roundtrip;
    prop_sum_bound;
    Alcotest.test_case "remove near cancellation" `Quick test_remove_near_cancellation;
    Alcotest.test_case "remove stable path" `Quick test_remove_stable_path;
    Alcotest.test_case "fold_in roundtrip" `Quick test_fold_in_roundtrip;
    prop_remove_any_index;
  ]
