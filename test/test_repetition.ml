open Sdf

let test_paper_graphs () =
  Alcotest.(check (array int)) "q(A)" [| 1; 2; 1 |]
    (Repetition.compute_exn (Fixtures.graph_a ()));
  Alcotest.(check (array int)) "q(B)" [| 2; 1; 1 |]
    (Repetition.compute_exn (Fixtures.graph_b ()))

let test_homogeneous () =
  Alcotest.(check (array int)) "pipeline" [| 1; 1 |]
    (Repetition.compute_exn (Fixtures.pipeline ()));
  Alcotest.(check (array int)) "single" [| 1 |]
    (Repetition.compute_exn (Fixtures.single ()))

let test_multirate_scaling () =
  (* 3 actors with rates forcing q = [6; 4; 3]. *)
  let g =
    Graph.create ~name:"tri"
      ~actors:[| ("x", 1.); ("y", 1.); ("z", 1.) |]
      ~channels:[| (0, 1, 2, 3, 0); (1, 2, 3, 4, 0); (2, 0, 2, 1, 12) |]
  in
  Alcotest.(check (array int)) "q" [| 6; 4; 3 |] (Repetition.compute_exn g)

let test_inconsistent () =
  let g = Fixtures.inconsistent () in
  (match Repetition.compute g with
  | Error (Repetition.Inconsistent _) -> ()
  | Ok q -> Alcotest.failf "got q of length %d" (Array.length q)
  | Error Repetition.Disconnected -> Alcotest.fail "wrong error");
  Alcotest.(check bool) "is_consistent" false (Repetition.is_consistent g);
  match Repetition.compute_exn g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "compute_exn did not raise"

let test_disconnected () =
  let g =
    Graph.create ~name:"disc"
      ~actors:[| ("x", 1.); ("y", 1.) |]
      ~channels:[| (0, 0, 1, 1, 1); (1, 1, 1, 1, 1) |]
  in
  match Repetition.compute g with
  | Error Repetition.Disconnected -> ()
  | Ok _ | Error (Repetition.Inconsistent _) -> Alcotest.fail "expected Disconnected"

let test_error_pp () =
  let msg = Format.asprintf "%a" Repetition.pp_error Repetition.Disconnected in
  Alcotest.(check bool) "mentions connectivity" true
    (Fixtures.contains ~affix:"connected" msg)

(* Balance equations hold for every generated graph. *)
let prop_balance =
  Fixtures.qcheck_case ~count:100 "balance equations" Fixtures.graph_gen (fun g ->
      let q = Repetition.compute_exn g in
      Array.for_all
        (fun (c : Graph.channel) -> q.(c.src) * c.produce = q.(c.dst) * c.consume)
        g.channels)

(* Minimality: entries have gcd 1. *)
let prop_minimal =
  Fixtures.qcheck_case ~count:100 "minimal vector" Fixtures.graph_gen (fun g ->
      let q = Repetition.compute_exn g in
      Array.fold_left Rational.gcd 0 q = 1)

let suite =
  [
    Alcotest.test_case "paper graphs" `Quick test_paper_graphs;
    Alcotest.test_case "homogeneous" `Quick test_homogeneous;
    Alcotest.test_case "multirate scaling" `Quick test_multirate_scaling;
    Alcotest.test_case "inconsistent" `Quick test_inconsistent;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "error printer" `Quick test_error_pp;
    prop_balance;
    prop_minimal;
  ]
