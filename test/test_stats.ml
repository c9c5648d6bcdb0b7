open Repro_stats

let test_mean_stddev () =
  Fixtures.check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  Fixtures.check_float "mean_arr" 2.5 (Stats.mean_arr [| 1.; 2.; 3.; 4. |]);
  Fixtures.check_float "stddev" (sqrt 1.25) (Stats.stddev [ 1.; 2.; 3.; 4. ]);
  Fixtures.check_float "stddev const" 0. (Stats.stddev [ 5.; 5.; 5. ])

let test_median_percentile () =
  Fixtures.check_float "p0" 1. (Stats.percentile 0. [ 1.; 2.; 3. ]);
  Fixtures.check_float "p100" 3. (Stats.percentile 100. [ 1.; 2.; 3. ]);
  Fixtures.check_float "p50" 2. (Stats.percentile 50. [ 1.; 2.; 3. ]);
  Fixtures.check_float "p25 interpolated" 1.5 (Stats.percentile 25. [ 1.; 2.; 3. ]);
  Fixtures.check_float "single" 7. (Stats.percentile 30. [ 7. ])

let test_min_max () =
  Fixtures.check_float "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  Fixtures.check_float "max" 3. (Stats.maximum [ 3.; 1.; 2. ])

let test_empty_raises () =
  let raises f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "empty accepted"
  in
  raises (fun () -> Stats.mean []);
  raises (fun () -> Stats.stddev []);
  raises (fun () -> Stats.percentile 50. []);
  raises (fun () -> Stats.mean_arr [||]);
  raises (fun () -> Stats.percentile 101. [ 1. ])

let test_abs_pct_error () =
  Fixtures.check_float "10% high" 10. (Stats.abs_pct_error ~reference:100. 110.);
  Fixtures.check_float "10% low" 10. (Stats.abs_pct_error ~reference:100. 90.);
  Fixtures.check_float "exact" 0. (Stats.abs_pct_error ~reference:42. 42.);
  match Stats.abs_pct_error ~reference:0. 1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero reference accepted"

let test_accumulator () =
  let acc = Stats.accumulator () in
  Alcotest.(check int) "empty count" 0 (Stats.count acc);
  (match Stats.acc_mean acc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty mean accepted");
  List.iter (Stats.add acc) [ 2.; 4.; 9. ];
  Alcotest.(check int) "count" 3 (Stats.count acc);
  Fixtures.check_float "acc mean" 5. (Stats.acc_mean acc);
  Fixtures.check_float "acc max" 9. (Stats.acc_max acc);
  Fixtures.check_float "acc min" 2. (Stats.acc_min acc)

let prop_mean_bounds =
  Fixtures.qcheck_case "mean within min/max"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range (-100.) 100.))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

let prop_accumulator_matches_list =
  Fixtures.qcheck_case "accumulator = list stats"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range (-100.) 100.))
    (fun xs ->
      let acc = Stats.accumulator () in
      List.iter (Stats.add acc) xs;
      Fixtures.float_eq ~eps:1e-9 (Stats.mean xs) (Stats.acc_mean acc)
      && Stats.acc_max acc = Stats.maximum xs
      && Stats.acc_min acc = Stats.minimum xs)

let suite =
  [
    Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
    Alcotest.test_case "median/percentile" `Quick test_median_percentile;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "empty raises" `Quick test_empty_raises;
    Alcotest.test_case "abs pct error" `Quick test_abs_pct_error;
    Alcotest.test_case "accumulator" `Quick test_accumulator;
    prop_mean_bounds;
    prop_accumulator_matches_list;
  ]
