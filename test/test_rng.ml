let test_determinism () =
  let a = Sdfgen.Rng.create 7 and b = Sdfgen.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sdfgen.Rng.bits64 a) (Sdfgen.Rng.bits64 b)
  done

let test_split_diverges () =
  let a = Sdfgen.Rng.create 7 in
  let b = Sdfgen.Rng.split a in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Sdfgen.Rng.bits64 a = Sdfgen.Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "split streams differ" 0 !same

let test_bounds () =
  let rng = Sdfgen.Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Sdfgen.Rng.int rng 10 in
    Alcotest.(check bool) "int in [0,10)" true (v >= 0 && v < 10);
    let v = Sdfgen.Rng.int_in rng 5 8 in
    Alcotest.(check bool) "int_in [5,8]" true (v >= 5 && v <= 8);
    let f = Sdfgen.Rng.float rng 2.5 in
    Alcotest.(check bool) "float in [0,2.5)" true (f >= 0. && f < 2.5)
  done

let test_invalid_bounds () =
  let rng = Sdfgen.Rng.create 1 in
  (match Sdfgen.Rng.int rng 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bound 0 accepted");
  (match Sdfgen.Rng.int_in rng 3 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty range accepted");
  match Sdfgen.Rng.pick rng [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pick accepted"

let test_shuffle_permutation () =
  let rng = Sdfgen.Rng.create 3 in
  let arr = Array.init 20 Fun.id in
  let shuffled = Array.copy arr in
  Sdfgen.Rng.shuffle rng shuffled;
  let sorted = Array.copy shuffled in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" arr sorted

let test_uniformity_rough () =
  (* chi-square-free sanity: each of 8 buckets gets 5-20% of 8000 draws. *)
  let rng = Sdfgen.Rng.create 99 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Sdfgen.Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket roughly uniform" true (c > 400 && c < 1600))
    buckets

let test_bool_balance () =
  let rng = Sdfgen.Rng.create 5 in
  let trues = ref 0 in
  for _ = 1 to 2000 do
    if Sdfgen.Rng.bool rng then incr trues
  done;
  Alcotest.(check bool) "bool roughly balanced" true (!trues > 800 && !trues < 1200)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "split diverges" `Quick test_split_diverges;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "invalid bounds" `Quick test_invalid_bounds;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "rough uniformity" `Quick test_uniformity_rough;
    Alcotest.test_case "bool balance" `Quick test_bool_balance;
  ]
