open Contention

let app_a () = Analysis.app (Fixtures.graph_a ()) ~mapping:[| 0; 1; 2 |]
let app_b () = Analysis.app (Fixtures.graph_b ()) ~mapping:[| 0; 1; 2 |]

let test_admit_best_effort () =
  let ctl = Admission.create ~procs:3 () in
  Alcotest.(check int) "procs" 3 (Admission.procs ctl);
  (match Admission.try_admit ctl (app_a ()) Admission.best_effort with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "A rejected");
  (match Admission.try_admit ctl (app_b ()) Admission.best_effort with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "B rejected");
  Alcotest.(check int) "two admitted" 2 (List.length (Admission.admitted ctl))

let test_alone_estimate_is_isolation () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  Fixtures.check_float ~eps:1e-6 "alone = isolation" 300. (Admission.estimated_period ctl "A")

let test_shared_estimate_matches_analysis () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  ignore (Admission.try_admit ctl (app_b ()) Admission.best_effort);
  (* Composability with a single partner per node is exact: 1075/3. *)
  Fixtures.check_float ~eps:1e-6 "Per(A) shared" (1075. /. 3.)
    (Admission.estimated_period ctl "A");
  Fixtures.check_float ~eps:1e-6 "Per(B) shared" (1075. /. 3.)
    (Admission.estimated_period ctl "B");
  Fixtures.check_float ~eps:1e-6 "throughput" (3. /. 1075.)
    (Admission.estimated_throughput ctl "A")

let test_candidate_rejection () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  (* B alone would meet 1/359 but not 1/300 under sharing. *)
  match Admission.try_admit ctl (app_b ()) { min_throughput = 1. /. 310. } with
  | Admission.Rejected_candidate { estimated; required } ->
      Alcotest.(check bool) "estimate below requirement" true (estimated < required);
      Alcotest.(check int) "not admitted" 1 (List.length (Admission.admitted ctl))
  | Admission.Admitted _ -> Alcotest.fail "B admitted despite requirement"
  | Admission.Rejected_victim _ -> Alcotest.fail "wrong rejection kind"

let test_victim_rejection () =
  let ctl = Admission.create ~procs:3 () in
  (* A requires nearly its isolation throughput; admitting B would hurt A. *)
  (match Admission.try_admit ctl (app_a ()) { min_throughput = 1. /. 310. } with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "A alone rejected");
  match Admission.try_admit ctl (app_b ()) Admission.best_effort with
  | Admission.Rejected_victim { app; _ } ->
      Alcotest.(check string) "victim is A" "A" app;
      Alcotest.(check int) "B not admitted" 1 (List.length (Admission.admitted ctl))
  | Admission.Admitted _ -> Alcotest.fail "B admitted despite hurting A"
  | Admission.Rejected_candidate _ -> Alcotest.fail "wrong rejection kind"

let test_withdraw_restores () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  ignore (Admission.try_admit ctl (app_b ()) Admission.best_effort);
  Admission.withdraw ctl "B";
  Alcotest.(check int) "one left" 1 (List.length (Admission.admitted ctl));
  (* With B gone, A's estimate returns to isolation (inverse ops exact). *)
  Fixtures.check_float ~eps:1e-6 "A restored" 300. (Admission.estimated_period ctl "A");
  (* And B can come back. *)
  match Admission.try_admit ctl (app_b ()) Admission.best_effort with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "re-admission failed"

let test_duplicate_and_missing () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  (match Admission.try_admit ctl (app_a ()) Admission.best_effort with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate admitted");
  (match Admission.withdraw ctl "Z" with
  | exception Not_found -> ()
  | () -> Alcotest.fail "withdrew unknown app");
  (match Admission.estimated_period ctl "Z" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "estimated unknown app");
  match Admission.create ~procs:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 procs accepted"

let test_mapping_out_of_range () =
  let ctl = Admission.create ~procs:2 () in
  match Admission.try_admit ctl (app_a ()) Admission.best_effort with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mapping beyond procs accepted"

(* Admit/withdraw in random order leaves estimates equal to a fresh
   controller with the same final population. *)
let prop_withdraw_path_independent =
  Fixtures.qcheck_case ~count:30 "withdraw path independence"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let procs = 2 in
      let mk name g =
        let g' =
          Sdf.Graph.create ~name
            ~actors:(Array.map (fun (a : Sdf.Graph.actor) -> (a.name, a.exec_time)) g.Sdf.Graph.actors)
            ~channels:(Array.map (fun (c : Sdf.Graph.channel) ->
                (c.src, c.dst, c.produce, c.consume, c.tokens)) g.Sdf.Graph.channels)
        in
        Analysis.app g' ~mapping:(Mapping.modulo ~procs g')
      in
      let a = mk "P" g1 and b = mk "Q" g2 in
      (* Controller 1: admit a, admit b, withdraw b. *)
      let c1 = Admission.create ~procs () in
      ignore (Admission.try_admit c1 a Admission.best_effort);
      ignore (Admission.try_admit c1 b Admission.best_effort);
      Admission.withdraw c1 "Q";
      (* Controller 2: admit a only. *)
      let c2 = Admission.create ~procs () in
      ignore (Admission.try_admit c2 a Admission.best_effort);
      Fixtures.float_eq ~eps:1e-6
        (Admission.estimated_period c1 "P")
        (Admission.estimated_period c2 "P"))

let suite =
  [
    Alcotest.test_case "admit best effort" `Quick test_admit_best_effort;
    Alcotest.test_case "alone = isolation" `Quick test_alone_estimate_is_isolation;
    Alcotest.test_case "shared matches analysis" `Quick test_shared_estimate_matches_analysis;
    Alcotest.test_case "candidate rejection" `Quick test_candidate_rejection;
    Alcotest.test_case "victim rejection" `Quick test_victim_rejection;
    Alcotest.test_case "withdraw restores" `Quick test_withdraw_restores;
    Alcotest.test_case "duplicate/missing" `Quick test_duplicate_and_missing;
    Alcotest.test_case "mapping range" `Quick test_mapping_out_of_range;
    prop_withdraw_path_independent;
  ]

(* Stress: random admit/withdraw sequences keep the controller consistent —
   every admitted app's estimate stays at or above its isolation period and
   the population matches the performed operations. *)
let test_random_admit_withdraw_stress () =
  let rng = Sdfgen.Rng.create 2024 in
  let params =
    { Sdfgen.Generator.default_params with actors_min = 3; actors_max = 5;
      exec_min = 2; exec_max = 25 }
  in
  let procs = 4 in
  let ctl = Admission.create ~procs () in
  let admitted = ref [] in
  for step = 1 to 40 do
    let coin = Sdfgen.Rng.int rng 3 in
    if coin < 2 || !admitted = [] then begin
      let name = Printf.sprintf "S%d" step in
      let g =
        Sdfgen.Generator.generate ~params (Sdfgen.Rng.split rng) ~name
      in
      let app = Analysis.app g ~mapping:(Mapping.modulo ~procs g) in
      match Admission.try_admit ctl app Admission.best_effort with
      | Admission.Admitted _ -> admitted := name :: !admitted
      | Admission.Rejected_candidate _ | Admission.Rejected_victim _ ->
          Alcotest.fail "best effort rejected"
    end
    else begin
      let victim = List.nth !admitted (Sdfgen.Rng.int rng (List.length !admitted)) in
      Admission.withdraw ctl victim;
      admitted := List.filter (fun n -> n <> victim) !admitted
    end;
    Alcotest.(check int) "population consistent" (List.length !admitted)
      (List.length (Admission.admitted ctl));
    List.iter
      (fun (name, (app : Analysis.app), _) ->
        let est = Admission.estimated_period ctl name in
        if est +. 1e-6 < app.isolation_period then
          Alcotest.failf "step %d: %s estimated %.3f below isolation %.3f" step name
            est app.isolation_period)
      (Admission.admitted ctl)
  done

let suite = suite @ [ Alcotest.test_case "random admit/withdraw stress" `Slow
                        test_random_admit_withdraw_stress ]

(* Section 6 feedback: observing measured periods recalibrates the controller. *)
let test_observe_measured_periods () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  ignore (Admission.try_admit ctl (app_b ()) Admission.best_effort);
  Alcotest.(check bool) "no measurement yet" true (Admission.observed_period ctl "A" = None);
  let before = Admission.estimated_period ctl "B" in
  (* The simulator showed A actually achieves 300 under sharing; but suppose
     the system observes A running at 600: A blocks its nodes half as often,
     so B's estimate must drop. *)
  Admission.observe ctl "A" ~measured_period:600.;
  Alcotest.(check bool) "measurement recorded" true
    (Admission.observed_period ctl "A" = Some 600.);
  let after = Admission.estimated_period ctl "B" in
  Alcotest.(check bool) "B estimate drops" true (after < before);
  (* P(a_i) halves from 1/3 to 1/6: B's waits halve exactly (single partner
     per node => composability is exact).  twait(b_i) = mu(a_i)/6 and b0
     fires twice per iteration: Per(B) = 300 + (2*50 + 25 + 50)/6. *)
  Fixtures.check_float ~eps:1e-6 "calibrated period" (300. +. (175. /. 6.)) after;
  (* Validation: a refused observation changes nothing, so the later
     withdraw still takes the incremental path. *)
  let counters = Admission.counters ctl in
  Fixtures.check_refuses_bad_periods "observe" (fun measured_period ->
      Admission.observe ctl "A" ~measured_period);
  (match Admission.observe ctl "Z" ~measured_period:10. with
  | exception Not_found -> ()
  | () -> Alcotest.fail "unknown app observed");
  Alcotest.(check bool) "measurement kept" true
    (Admission.observed_period ctl "A" = Some 600.);
  Alcotest.(check bool) "counters unchanged" true (Admission.counters ctl = counters);
  Alcotest.(check bool) "estimate unchanged" true
    (Float.equal (Admission.estimated_period ctl "B") after);
  Admission.withdraw ctl "A";
  Alcotest.(check int) "withdraw stays incremental" 0
    (Admission.counters ctl).full_rebuilds

let suite = suite @ [ Alcotest.test_case "observe measured periods" `Quick
                        test_observe_measured_periods ]
