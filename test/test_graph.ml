open Sdf

let test_create_accessors () =
  let g = Fixtures.graph_a () in
  Alcotest.(check int) "num_actors" 3 (Graph.num_actors g);
  Alcotest.(check int) "num_channels" 3 (Graph.num_channels g);
  let a1 = Graph.actor g 1 in
  Alcotest.(check string) "actor name" "a1" a1.name;
  Fixtures.check_float "actor exec" 50. a1.exec_time;
  Alcotest.(check int) "actor id" 1 a1.id

let test_validation () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "bad src" (fun () ->
      Graph.create ~name:"g" ~actors:[| ("x", 1.) |] ~channels:[| (1, 0, 1, 1, 0) |]);
  expect_invalid "bad dst" (fun () ->
      Graph.create ~name:"g" ~actors:[| ("x", 1.) |] ~channels:[| (0, 3, 1, 1, 0) |]);
  expect_invalid "zero rate" (fun () ->
      Graph.create ~name:"g" ~actors:[| ("x", 1.) |] ~channels:[| (0, 0, 0, 1, 0) |]);
  expect_invalid "negative tokens" (fun () ->
      Graph.create ~name:"g" ~actors:[| ("x", 1.) |] ~channels:[| (0, 0, 1, 1, -1) |]);
  expect_invalid "zero exec time" (fun () ->
      Graph.create ~name:"g" ~actors:[| ("x", 0.) |] ~channels:[||]);
  expect_invalid "out of range actor lookup" (fun () -> Graph.actor (Fixtures.graph_a ()) 5)

let test_exec_times () =
  let g = Fixtures.graph_a () in
  Alcotest.(check (array (float 1e-9))) "exec_times" [| 100.; 50.; 100. |] (Graph.exec_times g);
  let g' = Graph.with_exec_times g [| 1.; 2.; 3. |] in
  Alcotest.(check (array (float 1e-9))) "replaced" [| 1.; 2.; 3. |] (Graph.exec_times g');
  (* original untouched *)
  Alcotest.(check (array (float 1e-9))) "original" [| 100.; 50.; 100. |] (Graph.exec_times g);
  (match Graph.with_exec_times g [| 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch accepted");
  match Graph.with_exec_times g [| 1.; -2.; 3. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative time accepted"

let test_non_finite_exec_times () =
  List.iter
    (fun t ->
      (match Graph.create ~name:"g" ~actors:[| ("x", t) |] ~channels:[||] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "create accepted execution time %g" t);
      match Graph.with_exec_times (Fixtures.graph_a ()) [| 1.; t; 3. |] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "with_exec_times accepted time %g" t)
    [ nan; infinity ]

let test_connectivity () =
  let g = Fixtures.graph_a () in
  Alcotest.(check bool) "strongly connected" true (Graph.is_strongly_connected g);
  let chain =
    Graph.create ~name:"chain"
      ~actors:[| ("x", 1.); ("y", 1.) |]
      ~channels:[| (0, 1, 1, 1, 0) |]
  in
  Alcotest.(check bool) "chain not scc" false (Graph.is_strongly_connected chain);
  let split =
    Graph.create ~name:"split"
      ~actors:[| ("x", 1.); ("y", 1.) |]
      ~channels:[||]
  in
  Alcotest.(check bool) "split not scc" false (Graph.is_strongly_connected split)

let test_equal_structure_pp () =
  let g = Fixtures.graph_a () in
  Alcotest.(check bool) "equal self" true (Graph.equal_structure g (Fixtures.graph_a ()));
  Alcotest.(check bool) "not equal" false
    (Graph.equal_structure g (Fixtures.graph_b ()));
  let rendered = Format.asprintf "%a" Graph.pp g in
  Alcotest.(check bool) "pp mentions actor" true
    (Fixtures.contains ~affix:"a0" rendered)

let suite =
  [
    Alcotest.test_case "create and accessors" `Quick test_create_accessors;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "exec times" `Quick test_exec_times;
    Alcotest.test_case "non-finite exec times" `Quick test_non_finite_exec_times;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "equal/pp" `Quick test_equal_structure_pp;
  ]
