open Contention

(* A workload where the modulo mapping is clearly bad: two heavy single-actor
   rings both land on processor 0 while processor 1 idles. *)
let contended_pair () =
  let mk name =
    Sdf.Graph.create ~name
      ~actors:[| (name ^ "w", 10.); (name ^ "p", 10.) |]
      ~channels:[| (0, 1, 1, 1, 0); (1, 0, 1, 1, 1) |]
  in
  [ (mk "X", [| 0; 1 |]); (mk "Y", [| 0; 1 |]) ]

let test_score_contention_free_is_one () =
  let g = Fixtures.graph_a () in
  let assignment = [ (g, [| 0; 1; 2 |]) ] in
  Fixtures.check_float "single app score" 1. (Explore.score ~procs:3 assignment)

let test_score_orders_alternatives () =
  (* Overlapping mapping scores worse than a disjoint one. *)
  let gs = contended_pair () in
  let overlapping = Explore.score ~procs:4 gs in
  let disjoint =
    Explore.score ~procs:4
      (List.mapi (fun i (g, _) -> (g, [| 2 * i; (2 * i) + 1 |])) gs)
  in
  Fixtures.check_float "disjoint is contention-free" 1. disjoint;
  Alcotest.(check bool) "overlap worse" true (overlapping > disjoint)

let test_improve_finds_disjoint_mapping () =
  let outcome = Explore.improve ~procs:4 (contended_pair ()) in
  Alcotest.(check bool) "score improves" true
    (outcome.final_score < outcome.initial_score);
  Fixtures.check_float "reaches optimum" 1. outcome.final_score;
  Alcotest.(check bool) "made moves" true (outcome.moves > 0);
  Alcotest.(check bool) "spent evaluations" true (outcome.evaluations > outcome.moves);
  (* The result is a valid assignment with the workers separated. *)
  match outcome.assignment with
  | [ (_, mx); (_, my) ] ->
      Alcotest.(check bool) "workers separated" true (mx.(0) <> my.(0))
  | _ -> Alcotest.fail "arity"

let test_improve_respects_max_moves () =
  let outcome = Explore.improve ~max_moves:0 ~procs:4 (contended_pair ()) in
  Alcotest.(check int) "no moves" 0 outcome.moves;
  Fixtures.check_float "unchanged" outcome.initial_score outcome.final_score

(* Local search never worsens the score and stays valid. *)
let prop_improve_monotone =
  Fixtures.qcheck_case ~count:10 "improve never worsens"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let procs = 3 in
      let start = List.map (fun g -> (g, Mapping.modulo ~procs g)) [ g1; g2 ] in
      let outcome = Explore.improve ~max_moves:3 ~procs start in
      outcome.final_score <= outcome.initial_score +. 1e-9)

(* improve prepares each application once, yet scores exactly as score. *)
let prop_improve_scores_as_score =
  Fixtures.qcheck_case ~count:10 "improve scores as score"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let start = List.map (fun g -> (g, Mapping.modulo ~procs:3 g)) [ g1; g2 ] in
      let o = Explore.improve ~max_moves:3 ~procs:3 start in
      Float.equal o.initial_score (Explore.score ~procs:3 start)
      && Float.equal o.final_score (Explore.score ~procs:3 o.assignment))

let suite =
  [
    Alcotest.test_case "contention-free score" `Quick test_score_contention_free_is_one;
    Alcotest.test_case "score orders alternatives" `Quick test_score_orders_alternatives;
    Alcotest.test_case "improve finds disjoint" `Quick test_improve_finds_disjoint_mapping;
    Alcotest.test_case "max moves" `Quick test_improve_respects_max_moves;
    prop_improve_monotone;
    prop_improve_scores_as_score;
  ]
