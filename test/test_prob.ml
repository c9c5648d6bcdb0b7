open Contention

let test_paper_values () =
  (* Figure 2: P(a0) = 100*1/300 = 1/3, mu(a0) = 50. *)
  let l = Prob.of_actor ~exec_time:100. ~repetitions:1 ~period:300. in
  Fixtures.check_float "P(a0)" (1. /. 3.) l.p;
  Fixtures.check_float "mu(a0)" 50. l.mu;
  Fixtures.check_float "tau" 100. l.tau;
  (* a1 fires twice: P = 50*2/300 = 1/3, mu = 25. *)
  let l1 = Prob.of_actor ~exec_time:50. ~repetitions:2 ~period:300. in
  Fixtures.check_float "P(a1)" (1. /. 3.) l1.p;
  Fixtures.check_float "mu(a1)" 25. l1.mu

let test_saturation_cap () =
  let l = Prob.of_actor ~exec_time:100. ~repetitions:5 ~period:300. in
  Fixtures.check_float "capped at 1" 1. l.p

let test_waiting_product () =
  let l = Prob.make ~p:0.5 ~mu:30. ~tau:60. in
  Fixtures.check_float "mu*p" 15. (Prob.waiting_product l);
  Fixtures.check_float "idle product" 0. (Prob.waiting_product (Prob.make ~p:0. ~mu:0. ~tau:0.))

let test_validation () =
  let invalid f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid load accepted"
  in
  invalid (fun () -> Prob.make ~p:1.5 ~mu:1. ~tau:2.);
  invalid (fun () -> Prob.make ~p:(-0.1) ~mu:1. ~tau:2.);
  invalid (fun () -> Prob.make ~p:0.5 ~mu:(-1.) ~tau:2.);
  invalid (fun () -> Prob.make ~p:0.5 ~mu:1. ~tau:(-2.));
  invalid (fun () -> Prob.of_actor ~exec_time:0. ~repetitions:1 ~period:10.);
  invalid (fun () -> Prob.of_actor ~exec_time:1. ~repetitions:0 ~period:10.);
  Fixtures.check_refuses_bad_periods "of_actor" (fun period ->
      Prob.of_actor ~exec_time:1. ~repetitions:1 ~period);
  Fixtures.check_refuses_bad_periods "of_distribution" (fun period ->
      Prob.of_distribution ~dist:(Dist.Constant 1.) ~repetitions:1 ~period)

let prop_of_actor_in_range =
  Fixtures.qcheck_case "of_actor yields valid probability"
    QCheck2.Gen.(triple (float_range 1. 100.) (int_range 1 5) (float_range 1. 1000.))
    (fun (tau, q, per) ->
      let l = Prob.of_actor ~exec_time:tau ~repetitions:q ~period:per in
      l.p >= 0. && l.p <= 1. && l.mu = tau /. 2.)

let suite =
  [
    Alcotest.test_case "paper values" `Quick test_paper_values;
    Alcotest.test_case "saturation cap" `Quick test_saturation_cap;
    Alcotest.test_case "waiting product" `Quick test_waiting_product;
    Alcotest.test_case "validation" `Quick test_validation;
    prop_of_actor_in_range;
  ]
