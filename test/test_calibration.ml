open Contention

let paper_apps () =
  ( Analysis.app (Fixtures.graph_a ()) ~mapping:[| 0; 1; 2 |],
    Analysis.app (Fixtures.graph_b ()) ~mapping:[| 0; 1; 2 |] )

let test_calibrated_with_isolation_equals_plain () =
  let a, b = paper_apps () in
  let plain = Analysis.estimate (Analysis.Order 2) [ a; b ] in
  let calibrated =
    Analysis.estimate_calibrated (Analysis.Order 2) [ (a, 300.); (b, 300.) ]
  in
  List.iter2
    (fun (p : Analysis.estimate) (c : Analysis.estimate) ->
      Fixtures.check_float "same period" p.period c.period)
    plain calibrated

let test_calibration_tightens_towards_measurement () =
  (* Feed the measured (simulated) period 300: blocking probabilities stay
     1/3 here (periods unchanged), but feeding a larger measured period
     shrinks P and the estimate drops towards the measurement. *)
  let a, b = paper_apps () in
  let at measured =
    match Analysis.estimate_calibrated Analysis.Exact [ (a, measured); (b, measured) ] with
    | r :: _ -> r.Analysis.period
    | [] -> assert false
  in
  let e300 = at 300. and e450 = at 450. and e600 = at 600. in
  Alcotest.(check bool) "monotone in measured period" true (e300 > e450 && e450 > e600);
  (* As the system reports longer periods, the re-estimated contention
     surcharge shrinks (P ~ 1/period). *)
  Alcotest.(check bool) "surcharge shrinks" true (e600 -. 600. < e300 -. 300. +. 1e-9)

let test_calibrated_validation () =
  let a, b = paper_apps () in
  Fixtures.check_refuses_bad_periods "estimate_calibrated" (fun period ->
      Analysis.estimate_calibrated Analysis.Exact [ (a, 300.); (b, period) ]);
  Alcotest.(check int) "empty" 0
    (List.length (Analysis.estimate_calibrated Analysis.Exact []))

let test_estimate_with_loads_validation () =
  let a, _ = paper_apps () in
  match
    Analysis.estimate_with_loads Analysis.Exact
      [ (a, [| Prob.make ~p:0.1 ~mu:1. ~tau:2. |]) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short loads accepted"

(* With measured periods at least the isolation period (always true in a
   real system), the calibrated estimate is sandwiched between the isolation
   period and the plain estimate: larger measured periods mean smaller
   blocking probabilities, hence smaller waiting surcharges.  (Whether that
   tightening improves accuracy depends on whether the plain estimate was
   over- or under-shooting, which the paper leaves open — Section 6 proposes
   calibration, it does not claim a bound.) *)
let test_calibration_sandwich_on_random_workloads () =
  let rng = Sdfgen.Rng.create 77 in
  let params =
    { Sdfgen.Generator.default_params with actors_min = 4; actors_max = 6;
      exec_min = 2; exec_max = 30 }
  in
  let procs = 3 in
  for _ = 1 to 12 do
    let g1 = Sdfgen.Generator.generate ~params (Sdfgen.Rng.split rng) ~name:"U" in
    let g2 = Sdfgen.Generator.generate ~params (Sdfgen.Rng.split rng) ~name:"V" in
    let a1 = Analysis.app g1 ~mapping:(Mapping.modulo ~procs g1) in
    let a2 = Analysis.app g2 ~mapping:(Mapping.modulo ~procs g2) in
    let sim, _ =
      Desim.Engine.run ~horizon:60_000. ~procs
        [| { Desim.Engine.graph = g1; mapping = a1.Analysis.mapping };
           { Desim.Engine.graph = g2; mapping = a2.Analysis.mapping } |]
    in
    let s1 = sim.(0).Desim.Engine.avg_period and s2 = sim.(1).Desim.Engine.avg_period in
    if not (Float.is_nan s1 || Float.is_nan s2) then begin
      let plain = Analysis.estimate (Analysis.Order 2) [ a1; a2 ] in
      let measured1 = Float.max s1 a1.Analysis.isolation_period in
      let measured2 = Float.max s2 a2.Analysis.isolation_period in
      let calibrated =
        Analysis.estimate_calibrated (Analysis.Order 2)
          [ (a1, measured1); (a2, measured2) ]
      in
      List.iter2
        (fun (p : Analysis.estimate) (c : Analysis.estimate) ->
          Alcotest.(check bool) "calibrated <= plain" true (c.period <= p.period +. 1e-6);
          Alcotest.(check bool) "calibrated >= isolation" true
            (c.period +. 1e-6 >= c.for_app.Analysis.isolation_period))
        plain calibrated
    end
  done

let test_contended_metrics () =
  let a, b = paper_apps () in
  match Analysis.estimate Analysis.Exact [ a; b ] with
  | [ ra; _ ] -> (
      let adjusted = Analysis.adjusted_graph ra in
      Alcotest.(check (array (float 1e-6))) "adjusted times" ra.response_times
        (Sdf.Graph.exec_times adjusted);
      match Sdf.Metrics.analyse adjusted with
      | None -> Alcotest.fail "adjusted graph deadlocked"
      | Some m ->
          (* One iteration of the adjusted graph takes the estimated
             period: latency = 1075/3. *)
          Fixtures.check_float ~eps:1e-6 "contended latency" (1075. /. 3.) m.latency)
  | _ -> Alcotest.fail "arity"

let suite =
  [
    Alcotest.test_case "isolation calibration = plain" `Quick
      test_calibrated_with_isolation_equals_plain;
    Alcotest.test_case "monotone in measurement" `Quick
      test_calibration_tightens_towards_measurement;
    Alcotest.test_case "validation" `Quick test_calibrated_validation;
    Alcotest.test_case "with_loads validation" `Quick test_estimate_with_loads_validation;
    Alcotest.test_case "sandwich on random workloads" `Slow
      test_calibration_sandwich_on_random_workloads;
    Alcotest.test_case "contended metrics" `Quick test_contended_metrics;
  ]
