open Contention

let test_empty_and_single () =
  Fixtures.check_float "no contenders" 0. (Exact.waiting_time []);
  (* One contender: W = mu * P (the Section 3 two-actor case). *)
  let l = Prob.make ~p:(1. /. 3.) ~mu:50. ~tau:100. in
  Fixtures.check_float "single" (50. /. 3.) (Exact.waiting_time [ l ])

let test_paper_two_actor_formula () =
  (* Section 3.2: W = mu_a P_a (1 + P_b/2) + mu_b P_b (1 + P_a/2). *)
  let a = Prob.make ~p:0.4 ~mu:10. ~tau:20. in
  let b = Prob.make ~p:0.6 ~mu:25. ~tau:50. in
  let expected = (10. *. 0.4 *. (1. +. 0.3)) +. (25. *. 0.6 *. (1. +. 0.2)) in
  Fixtures.check_float "two actors" expected (Exact.waiting_time [ a; b ])

let test_paper_three_actor_formula () =
  (* Equation 3 written out. *)
  let mk p mu = Prob.make ~p ~mu ~tau:(2. *. mu) in
  let a = mk 0.2 5. and b = mk 0.3 10. and c = mk 0.4 15. in
  let term mu p p1 p2 = mu *. p *. (1. +. (0.5 *. (p1 +. p2)) -. (p1 *. p2 /. 3.)) in
  let expected = term 5. 0.2 0.3 0.4 +. term 10. 0.3 0.2 0.4 +. term 15. 0.4 0.2 0.3 in
  Fixtures.check_float "three actors" expected (Exact.waiting_time [ a; b; c ])

let test_series_coefficient () =
  Fixtures.check_float "j=1" 0.5 (Exact.series_coefficient 1);
  Fixtures.check_float "j=2" (-1. /. 3.) (Exact.series_coefficient 2);
  Fixtures.check_float "j=3" 0.25 (Exact.series_coefficient 3)

let test_brute_force_agreement_fixed () =
  let loads =
    [
      Prob.make ~p:0.3 ~mu:20. ~tau:40.;
      Prob.make ~p:0.5 ~mu:10. ~tau:20.;
      Prob.make ~p:0.2 ~mu:35. ~tau:70.;
      Prob.make ~p:0.7 ~mu:5. ~tau:10.;
      Prob.make ~p:0.9 ~mu:50. ~tau:100.;
    ]
  in
  Fixtures.check_float ~eps:1e-9 "Eq.4 = enumeration"
    (Check.Oracle.waiting_time_brute_force loads)
    (Exact.waiting_time loads)

(* The central correctness property (substitute for the proofs in the
   paper's technical report [8]): Equation 4 equals the direct queue-state
   enumeration for any set of loads. *)
let prop_matches_enumeration =
  Fixtures.qcheck_case ~count:500 "Eq.4 = queue enumeration" (Fixtures.load_gen ())
    (fun loads ->
      Fixtures.float_eq ~eps:1e-9
        (Check.Oracle.waiting_time_brute_force loads)
        (Exact.waiting_time loads))

let prop_non_negative =
  Fixtures.qcheck_case "non-negative" (Fixtures.load_gen ()) (fun loads ->
      Exact.waiting_time loads >= 0.)

(* Adding a contender never reduces the expected wait. *)
let prop_monotone_in_contenders =
  Fixtures.qcheck_case "monotone in contenders"
    QCheck2.Gen.(pair (Fixtures.load_gen ()) (Fixtures.load_gen ~max_actors:1 ()))
    (fun (loads, extra) ->
      Exact.waiting_time (loads @ extra) +. 1e-9 >= Exact.waiting_time loads)

(* Waiting time is bounded by the worst case (everyone queued in full). *)
let prop_bounded_by_worst_case =
  Fixtures.qcheck_case "bounded by worst case" (Fixtures.load_gen ()) (fun loads ->
      Exact.waiting_time loads <= Wcrt.waiting_time loads +. 1e-9)

let suite =
  [
    Alcotest.test_case "empty and single" `Quick test_empty_and_single;
    Alcotest.test_case "paper two-actor formula" `Quick test_paper_two_actor_formula;
    Alcotest.test_case "paper Equation 3" `Quick test_paper_three_actor_formula;
    Alcotest.test_case "series coefficients" `Quick test_series_coefficient;
    Alcotest.test_case "brute force agreement" `Quick test_brute_force_agreement_fixed;
    prop_matches_enumeration;
    prop_non_negative;
    prop_monotone_in_contenders;
    prop_bounded_by_worst_case;
  ]
