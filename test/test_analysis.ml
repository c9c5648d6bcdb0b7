open Contention

let paper_apps () =
  let a = Analysis.app (Fixtures.graph_a ()) ~mapping:[| 0; 1; 2 |] in
  let b = Analysis.app (Fixtures.graph_b ()) ~mapping:[| 0; 1; 2 |] in
  (a, b)

let test_isolation_periods () =
  let a, b = paper_apps () in
  Fixtures.check_float "Per(A)" 300. a.isolation_period;
  Fixtures.check_float "Per(B)" 300. b.isolation_period

let test_loads_match_paper () =
  let a, b = paper_apps () in
  let la = Analysis.loads a and lb = Analysis.loads b in
  (* All blocking probabilities are 1/3 (Section 3.1). *)
  Array.iter (fun (l : Prob.t) -> Fixtures.check_float "P(ai)" (1. /. 3.) l.p) la;
  Array.iter (fun (l : Prob.t) -> Fixtures.check_float "P(bi)" (1. /. 3.) l.p) lb;
  (* mu vectors: [50 25 50] and [25 50 50]. *)
  Alcotest.(check (array (float 1e-9))) "mu(a)" [| 50.; 25.; 50. |]
    (Array.map (fun (l : Prob.t) -> l.mu) la);
  Alcotest.(check (array (float 1e-9))) "mu(b)" [| 25.; 50.; 50. |]
    (Array.map (fun (l : Prob.t) -> l.mu) lb)

let check_paper_waits estimator =
  let a, b = paper_apps () in
  match Analysis.estimate estimator [ a; b ] with
  | [ ra; rb ] ->
      (* Section 3.1: twait[a] = [25/3; 50/3; 50/3], twait[b] = [50/3; 25/3; 50/3]. *)
      Alcotest.(check (array (float 1e-6))) "twait(a)"
        [| 25. /. 3.; 50. /. 3.; 50. /. 3. |] ra.Analysis.waiting_times;
      Alcotest.(check (array (float 1e-6))) "twait(b)"
        [| 50. /. 3.; 25. /. 3.; 50. /. 3. |] rb.Analysis.waiting_times;
      (* New periods: 1075/3 = 358.33 (the paper rounds to 359). *)
      Fixtures.check_float ~eps:1e-6 "Per'(A)" (1075. /. 3.) ra.Analysis.period;
      Fixtures.check_float ~eps:1e-6 "Per'(B)" (1075. /. 3.) rb.Analysis.period
  | _ -> Alcotest.fail "wrong result arity"

let test_paper_example_all_probabilistic () =
  (* With one contender per node every probabilistic method coincides. *)
  List.iter check_paper_waits [ Analysis.Order 2; Analysis.Order 4; Analysis.Composability; Analysis.Exact ]

let test_paper_example_worst_case () =
  let a, b = paper_apps () in
  match Analysis.estimate Analysis.Worst_case [ a; b ] with
  | [ ra; rb ] ->
      (* Worst case waits are the partner's full execution time. *)
      Alcotest.(check (array (float 1e-9))) "twait(a)" [| 50.; 100.; 100. |]
        ra.Analysis.waiting_times;
      Alcotest.(check (array (float 1e-9))) "twait(b)" [| 100.; 50.; 100. |]
        rb.Analysis.waiting_times;
      Alcotest.(check bool) "periods grow" true
        (ra.Analysis.period > 600. && rb.Analysis.period > 600.)
  | _ -> Alcotest.fail "wrong result arity"

let test_single_app_untouched () =
  let a, _ = paper_apps () in
  match Analysis.estimate (Analysis.Order 2) [ a ] with
  | [ r ] ->
      Fixtures.check_float "period = isolation" 300. r.Analysis.period;
      Alcotest.(check (array (float 1e-9))) "no waiting" [| 0.; 0.; 0. |]
        r.Analysis.waiting_times;
      Fixtures.check_float "throughput" (1. /. 300.) (Analysis.throughput r)
  | _ -> Alcotest.fail "wrong arity"

let test_empty_usecase () =
  Alcotest.(check int) "no apps" 0 (List.length (Analysis.estimate Analysis.Exact []))

let test_engines_agree () =
  (* The kernel's cycle-ratio period against self-timed execution of the
     same contended graph. *)
  let a, b = paper_apps () in
  List.iter
    (fun (r : Analysis.estimate) ->
      Fixtures.check_float ~eps:1e-5 "engine parity" r.period
        (Sdf.Statespace.period_exn (Analysis.adjusted_graph r)))
    (Analysis.estimate (Analysis.Order 2) [ a; b ])

let test_iterated_refinement () =
  let a, b = paper_apps () in
  let pass1 = Analysis.estimate ~iterations:1 (Analysis.Order 2) [ a; b ] in
  let pass3 = Analysis.estimate ~iterations:3 (Analysis.Order 2) [ a; b ] in
  (* Iteration lowers blocking probabilities (periods grew), so the
     fixed-point estimate is at most the single-pass one and still above the
     isolation period. *)
  List.iter2
    (fun (r1 : Analysis.estimate) (r3 : Analysis.estimate) ->
      Alcotest.(check bool) "refined <= single pass" true (r3.period <= r1.period +. 1e-9);
      Alcotest.(check bool) "refined >= isolation" true
        (r3.period +. 1e-9 >= r3.for_app.isolation_period))
    pass1 pass3;
  match Analysis.estimate ~iterations:0 (Analysis.Order 2) [ a; b ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "iterations 0 accepted"

let test_app_validation () =
  (match Analysis.app (Fixtures.graph_a ()) ~mapping:[| 0; 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short mapping accepted");
  (match Analysis.app ~procs:2 (Fixtures.graph_a ()) ~mapping:[| 0; 1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "proc range ignored");
  (match Analysis.app (Fixtures.graph_a ()) ~mapping:[| 0; -1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative processor accepted");
  (match Analysis.app (Fixtures.deadlocked ()) ~mapping:[| 0; 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deadlocked graph accepted");
  (* Explicit period skips the statespace computation. *)
  let a = Analysis.app ~period:123. (Fixtures.graph_a ()) ~mapping:[| 0; 1; 2 |] in
  Fixtures.check_float "explicit period" 123. a.isolation_period

let test_estimator_names () =
  Alcotest.(check string) "wc" "worst-case" (Analysis.estimator_name Analysis.Worst_case);
  Alcotest.(check string) "o2" "second-order" (Analysis.estimator_name (Analysis.Order 2));
  Alcotest.(check string) "o4" "fourth-order" (Analysis.estimator_name (Analysis.Order 4));
  Alcotest.(check string) "o6" "order-6" (Analysis.estimator_name (Analysis.Order 6));
  Alcotest.(check string) "comp" "composability"
    (Analysis.estimator_name Analysis.Composability);
  Alcotest.(check string) "exact" "exact" (Analysis.estimator_name Analysis.Exact);
  Alcotest.(check int) "paper estimators" 4 (List.length Analysis.all_paper_estimators)

(* Conservativeness ordering holds end-to-end on periods, not just on
   waiting times: worst-case >= second >= fourth >= exact >= isolation. *)
let prop_period_ordering =
  Fixtures.qcheck_case ~count:25 "period ordering"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let procs = 3 in
      let mk g = Analysis.app g ~mapping:(Mapping.modulo ~procs g) in
      let apps = [ mk g1; mk g2 ] in
      let period est =
        match Analysis.estimate est apps with
        | r :: _ -> r.Analysis.period
        | [] -> assert false
      in
      let wc = period Analysis.Worst_case
      and o2 = period (Analysis.Order 2)
      and o4 = period (Analysis.Order 4)
      and ex = period Analysis.Exact in
      let iso = (List.hd apps).Analysis.isolation_period in
      (* wc >= exact is a law; wc >= o2 is not (the second-order
         over-estimate can cross the worst case at extreme loads). *)
      wc +. 1e-6 >= ex && o2 +. 1e-6 >= o4 && o4 +. 1e-6 >= ex && ex +. 1e-6 >= iso)

(* Estimated waiting never exceeds the worst case on any actor. *)
let prop_waits_below_worst_case =
  Fixtures.qcheck_case ~count:25 "waits below worst case"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let procs = 2 in
      let mk g = Analysis.app g ~mapping:(Mapping.modulo ~procs g) in
      let apps = [ mk g1; mk g2 ] in
      let waits est =
        List.concat_map
          (fun (r : Analysis.estimate) -> Array.to_list r.waiting_times)
          (Analysis.estimate est apps)
      in
      List.for_all2
        (fun w wc -> w <= wc +. 1e-9)
        (waits Analysis.Exact) (waits Analysis.Worst_case))

let suite =
  [
    Alcotest.test_case "isolation periods" `Quick test_isolation_periods;
    Alcotest.test_case "paper loads" `Quick test_loads_match_paper;
    Alcotest.test_case "paper example (probabilistic)" `Quick
      test_paper_example_all_probabilistic;
    Alcotest.test_case "paper example (worst case)" `Quick test_paper_example_worst_case;
    Alcotest.test_case "single app untouched" `Quick test_single_app_untouched;
    Alcotest.test_case "empty use-case" `Quick test_empty_usecase;
    Alcotest.test_case "period engines agree" `Quick test_engines_agree;
    Alcotest.test_case "iterated refinement" `Quick test_iterated_refinement;
    Alcotest.test_case "app validation" `Quick test_app_validation;
    Alcotest.test_case "estimator names" `Quick test_estimator_names;
    prop_period_ordering;
    prop_waits_below_worst_case;
  ]

(* Adding an application never improves anyone's estimated period — the
   end-to-end counterpart of the kernels' monotonicity in contenders. *)
let prop_adding_app_monotone =
  Fixtures.qcheck_case ~count:15 "adding an app is monotone"
    QCheck2.Gen.(triple Fixtures.graph_gen Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2, g3) ->
      let procs = 3 in
      let mk g = Analysis.app g ~mapping:(Mapping.modulo ~procs g) in
      let a = mk g1 and b = mk g2 and c = mk g3 in
      let periods apps =
        List.map (fun (r : Analysis.estimate) -> r.period)
          (Analysis.estimate (Analysis.Order 2) apps)
      in
      match (periods [ a; b ], periods [ a; b; c ]) with
      | [ pa2; pb2 ], [ pa3; pb3; _ ] -> pa3 +. 1e-9 >= pa2 && pb3 +. 1e-9 >= pb2
      | _ -> false)

(* The estimate is invariant under the order applications are listed in. *)
let prop_order_invariant =
  Fixtures.qcheck_case ~count:15 "input order invariant"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let procs = 2 in
      let mk g = Analysis.app g ~mapping:(Mapping.modulo ~procs g) in
      let a = mk g1 and b = mk g2 in
      match (Analysis.estimate Analysis.Exact [ a; b ],
             Analysis.estimate Analysis.Exact [ b; a ]) with
      | [ ra; rb ], [ rb'; ra' ] ->
          Fixtures.float_eq ~eps:1e-9 ra.Analysis.period ra'.Analysis.period
          && Fixtures.float_eq ~eps:1e-9 rb.Analysis.period rb'.Analysis.period
      | _ -> false)

let suite = suite @ [ prop_adding_app_monotone; prop_order_invariant ]
