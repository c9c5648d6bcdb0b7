open Contention

let test_sums_exec_times () =
  let loads =
    [ Prob.make ~p:0.1 ~mu:10. ~tau:20.; Prob.make ~p:0.9 ~mu:25. ~tau:50. ]
  in
  Fixtures.check_float "sum of taus" 70. (Wcrt.waiting_time loads);
  Fixtures.check_float "raw taus" 70. (Wcrt.waiting_time_of_exec_times [ 20.; 50. ])

let test_empty () =
  Fixtures.check_float "empty" 0. (Wcrt.waiting_time []);
  Fixtures.check_float "empty raw" 0. (Wcrt.waiting_time_of_exec_times [])

let test_probability_independent () =
  (* The worst case ignores probabilities entirely. *)
  let low = [ Prob.make ~p:0.01 ~mu:10. ~tau:20. ] in
  let high = [ Prob.make ~p:0.99 ~mu:10. ~tau:20. ] in
  Fixtures.check_float "same bound" (Wcrt.waiting_time low) (Wcrt.waiting_time high)

let prop_dominates_exact =
  (* Soundness of the baseline: it upper-bounds the probabilistic wait. *)
  Fixtures.qcheck_case "wcrt >= exact" (Fixtures.load_gen ()) (fun loads ->
      Wcrt.waiting_time loads +. 1e-9 >= Exact.waiting_time loads)

let prop_dominates_composability =
  (* The worst case dominates the exact expectation; the truncated
     over-estimates (second order, composability) can exceed it at extreme
     loads, so only the exact comparison is a law. *)
  Fixtures.qcheck_case "wcrt >= brute-force expectation" (Fixtures.load_gen ())
    (fun loads ->
      Wcrt.waiting_time loads +. 1e-9 >= Check.Oracle.waiting_time_brute_force loads)

let prop_additive =
  Fixtures.qcheck_case "additive in contenders"
    QCheck2.Gen.(pair (Fixtures.load_gen ()) (Fixtures.load_gen ()))
    (fun (a, b) ->
      Fixtures.float_eq ~eps:1e-9
        (Wcrt.waiting_time a +. Wcrt.waiting_time b)
        (Wcrt.waiting_time (a @ b)))

let suite =
  [
    Alcotest.test_case "sums exec times" `Quick test_sums_exec_times;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "probability independent" `Quick test_probability_independent;
    prop_dominates_exact;
    prop_dominates_composability;
    prop_additive;
  ]
