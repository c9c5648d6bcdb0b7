open Contention

let test_constant () =
  let d = Dist.Constant 10. in
  Fixtures.check_float "mean" 10. (Dist.mean d);
  Fixtures.check_float "second moment" 100. (Dist.second_moment d);
  (* Constant residual equals the paper's tau/2. *)
  Fixtures.check_float "residual" 5. (Dist.residual d);
  Fixtures.check_float "sample" 10. (Dist.sample d ~u:0.42)

let test_uniform () =
  let d = Dist.Uniform { lo = 4.; hi = 8. } in
  Fixtures.check_float "mean" 6. (Dist.mean d);
  (* E X^2 = (8^3 - 4^3) / (3 * 4) = 448/12. *)
  Fixtures.check_float "second moment" (448. /. 12.) (Dist.second_moment d);
  Fixtures.check_float "residual" (448. /. 12. /. 12.) (Dist.residual d);
  Fixtures.check_float "sample lo" 4. (Dist.sample d ~u:0.);
  Fixtures.check_float "sample mid" 6. (Dist.sample d ~u:0.5);
  (* Degenerate uniform behaves like a constant. *)
  let point = Dist.Uniform { lo = 3.; hi = 3. } in
  Fixtures.check_float "degenerate second moment" 9. (Dist.second_moment point)

let test_discrete () =
  let d = Dist.Discrete [ (2., 1.); (10., 3.) ] in
  Fixtures.check_float "mean" 8. (Dist.mean d);
  Fixtures.check_float "second moment" ((4. +. 300.) /. 4.) (Dist.second_moment d);
  (* Inversion: first 25% of u-mass is the value 2. *)
  Fixtures.check_float "sample low" 2. (Dist.sample d ~u:0.1);
  Fixtures.check_float "sample high" 10. (Dist.sample d ~u:0.9);
  Fixtures.check_float "sample boundary" 10. (Dist.sample d ~u:0.25)

let test_exponential () =
  let d = Dist.Exponential { mean = 5. } in
  Fixtures.check_float "mean" 5. (Dist.mean d);
  Fixtures.check_float "second moment" 50. (Dist.second_moment d);
  (* Memoryless: residual = mean. *)
  Fixtures.check_float "residual" 5. (Dist.residual d);
  Fixtures.check_float "median sample" (5. *. log 2.) (Dist.sample d ~u:0.5)

let test_validation () =
  let invalid d = match Dist.validate d with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.fail "invalid distribution accepted"
  in
  invalid (Dist.Constant 0.);
  invalid (Dist.Uniform { lo = 0.; hi = 3. });
  invalid (Dist.Uniform { lo = 5.; hi = 3. });
  invalid (Dist.Discrete []);
  invalid (Dist.Discrete [ (1., -1.) ]);
  invalid (Dist.Discrete [ (0., 1.) ]);
  invalid (Dist.Discrete [ (1., 0.) ]);
  invalid (Dist.Exponential { mean = -1. });
  match Dist.sample (Dist.Constant 1.) ~u:1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "u = 1 accepted"

let test_prob_of_distribution () =
  (* Constant distribution reproduces the base model exactly. *)
  let base = Prob.of_actor ~exec_time:100. ~repetitions:1 ~period:300. in
  let dist = Prob.of_distribution ~dist:(Dist.Constant 100.) ~repetitions:1 ~period:300. in
  Fixtures.check_float "p" base.p dist.p;
  Fixtures.check_float "mu" base.mu dist.mu;
  (* Higher variance at the same mean raises mu but not p. *)
  let spread =
    Prob.of_distribution
      ~dist:(Dist.Uniform { lo = 50.; hi = 150. })
      ~repetitions:1 ~period:300.
  in
  Fixtures.check_float "same p" base.p spread.p;
  Alcotest.(check bool) "larger residual" true (spread.mu > base.mu)

let dist_gen =
  let open QCheck2.Gen in
  oneof
    [
      map (fun v -> Dist.Constant v) (float_range 1. 100.);
      map2
        (fun lo extent -> Dist.Uniform { lo; hi = lo +. extent })
        (float_range 1. 50.) (float_range 0. 50.);
      map
        (fun vs -> Dist.Discrete (List.map (fun v -> (v, 1.)) vs))
        (list_size (int_range 1 5) (float_range 1. 100.));
      map (fun mean -> Dist.Exponential { mean }) (float_range 1. 50.);
    ]

let prop_sample_mean_converges =
  Fixtures.qcheck_case ~count:50 "empirical mean converges" dist_gen (fun d ->
      let rng = Sdfgen.Rng.create 7 in
      let n = 20_000 in
      let sum = ref 0. in
      for _ = 1 to n do
        sum := !sum +. Dist.sample d ~u:(Sdfgen.Rng.float rng 1.)
      done;
      let empirical = !sum /. float_of_int n in
      (* 3% relative tolerance is loose enough for exp's heavy tail at n=20k. *)
      Float.abs (empirical -. Dist.mean d) <= 0.03 *. Dist.mean d +. 0.05)

let prop_residual_at_least_half_mean =
  (* E X^2 >= (E X)^2, so the residual is at least mean/2, with equality only
     for constants — the inspection paradox. *)
  Fixtures.qcheck_case "residual >= mean/2" dist_gen (fun d ->
      Dist.residual d +. 1e-9 >= Dist.mean d /. 2.)

let prop_samples_in_support =
  Fixtures.qcheck_case "samples positive" QCheck2.Gen.(pair dist_gen (float_bound_exclusive 1.))
    (fun (d, u) -> Dist.sample d ~u > 0.)

let suite =
  [
    Alcotest.test_case "constant" `Quick test_constant;
    Alcotest.test_case "uniform" `Quick test_uniform;
    Alcotest.test_case "discrete" `Quick test_discrete;
    Alcotest.test_case "exponential" `Quick test_exponential;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "prob bridge" `Quick test_prob_of_distribution;
    prop_sample_mean_converges;
    prop_residual_at_least_half_mean;
    prop_samples_in_support;
  ]
