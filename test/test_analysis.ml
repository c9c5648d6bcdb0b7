open Contention

let paper_apps () =
  let a = Analysis.app (Fixtures.graph_a ()) ~mapping:[| 0; 1; 2 |] in
  let b = Analysis.app (Fixtures.graph_b ()) ~mapping:[| 0; 1; 2 |] in
  (a, b)

let test_isolation_periods () =
  let a, b = paper_apps () in
  Fixtures.check_float "Per(A)" 300. a.isolation_period;
  Fixtures.check_float "Per(B)" 300. b.isolation_period

(* Isolation periods have no time scaling to fall out of: a two-actor ring
   is served 2 tau far below and far above any fixed resolution.  Nor does
   the period search have an absolute tolerance: on a ring with two tokens
   whose actors' own firings are 1e-13 apart at 1e-7, the slower actor's
   firing binds, whichever actor it is. *)
let test_isolation_period_range () =
  List.iter
    (fun tau ->
      let g = Fixtures.pipeline ~tau0:tau ~tau1:tau () in
      let a = Analysis.app g ~mapping:[| 0; 1 |] in
      if not (Float.equal a.isolation_period (2. *. tau)) then
        Alcotest.failf "tau %g: isolation period %.17g" tau a.isolation_period)
    [ 1e-7; 2e9 ];
  let fast = 1e-7 and slow = 1e-7 +. 1e-13 in
  List.iter
    (fun (tx, ty) ->
      let g =
        Sdf.Graph.create ~name:"close"
          ~actors:[| ("x", tx); ("y", ty) |]
          ~channels:[| (0, 1, 1, 1, 0); (1, 0, 1, 1, 2) |]
      in
      let a = Analysis.app g ~mapping:[| 0; 1 |] in
      if not (Float.equal a.isolation_period slow) then
        Alcotest.failf "x %.17g, y %.17g: isolation period %.17g" tx ty
          a.isolation_period)
    [ (fast, slow); (slow, fast) ]

(* A channel with three initial tokens lets the ring overlap three deep, so
   y's own firing (no auto-concurrency) binds. *)
let test_three_token_ring () =
  let g =
    Sdf.Graph.create ~name:"deep"
      ~actors:[| ("x", 4.); ("y", 9.) |]
      ~channels:[| (0, 1, 1, 1, 0); (1, 0, 1, 1, 3) |]
  in
  let a = Analysis.app g ~mapping:[| 0; 1 |] in
  Fixtures.check_float ~eps:1e-12 "served" 9. a.isolation_period;
  Fixtures.check_float "statespace" 9. (Sdf.Statespace.period_exn g);
  Fixtures.check_float ~eps:1e-9 "hsdf" 9. (Sdf.Hsdf.period g)

(* Non-integer times are served exactly: with every time an integer plus a
   multiple of 2^-30, the graph scaled by 2^30 has integer times and an
   exact rational period, which scales back without rounding. *)
let prop_non_integer_isolation_exact =
  let gen =
    QCheck2.Gen.(
      pair Fixtures.graph_gen (array_size (return 6) (int_bound ((1 lsl 30) - 1))))
  in
  Fixtures.qcheck_case ~count:300 "non-integer isolation periods exact" gen
    (fun (g, fractions) ->
      let times =
        Array.mapi
          (fun i t -> t +. Float.ldexp (float_of_int fractions.(i mod 6)) (-30))
          (Sdf.Graph.exec_times g)
      in
      let g = Sdf.Graph.with_exec_times g times in
      let a = Analysis.app g ~mapping:(Array.make (Sdf.Graph.num_actors g) 0) in
      let scaled =
        Sdf.Graph.with_exec_times g (Array.map (fun t -> Float.ldexp t 30) times)
      in
      let exact =
        Float.ldexp (Sdf.Rational.to_float (Sdf.Hsdf.period_rational scaled)) (-30)
      in
      Float.abs (a.isolation_period -. exact) <= 1e-12 *. exact
      || QCheck2.Test.fail_reportf "served %.17g, exact %.17g" a.isolation_period
           exact)

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
  | exception Invalid_argument msg ->
      if not (Fixtures.contains ~affix:{|graph "dead"|} msg) then
        Alcotest.failf "deadlock refusal does not name the graph: %s" msg
  | _ -> Alcotest.fail "deadlocked graph accepted");
  (* A graph whose HSDF expansion would not fit is refused by name before
     any of it is built, for its firings (1e8 of y) or its tokens alone (two
     firings, 2e8 edges), with a given period as without. *)
  List.iter
    (fun (p, c) ->
      let g =
        Sdf.Graph.create ~name:"huge" ~actors:[| ("x", 1.); ("y", 1.) |]
          ~channels:[| (0, 1, p, c, 0); (1, 0, c, p, p) |]
      in
      List.iter
        (fun f ->
          match f () with
          | exception Invalid_argument msg
            when Fixtures.contains ~affix:{|graph "huge" expands|} msg -> ()
          | _ -> Alcotest.failf "%d:%d expansion not refused by name" p c)
        [ (fun () -> ignore (Analysis.app g ~mapping:[| 0; 1 |]));
          (fun () -> ignore (Analysis.app ~period:1. g ~mapping:[| 0; 1 |])) ])
    [ (100_000_000, 1); (100_000_000, 100_000_000) ];
  (* An explicit period replaces the isolation period. *)
  let a = Analysis.app ~period:123. (Fixtures.graph_a ()) ~mapping:[| 0; 1; 2 |] in
  Fixtures.check_float "explicit period" 123. a.isolation_period;
  Fixtures.check_refuses_bad_periods "app ?period" (fun period ->
      Analysis.app ~period (Fixtures.graph_a ()) ~mapping:[| 0; 1; 2 |]);
  Fixtures.check_refuses_bad_periods "loads_at_period" (fun period ->
      Analysis.loads_at_period a ~period)

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
    Alcotest.test_case "isolation period range" `Quick test_isolation_period_range;
    Alcotest.test_case "three-token ring" `Quick test_three_token_ring;
    prop_non_integer_isolation_exact;
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
