open Sdf

let test_expand_counts () =
  let h = Hsdf.expand (Fixtures.graph_a ()) in
  (* q = [1;2;1] -> 4 firing nodes. *)
  Alcotest.(check int) "nodes" 4 (Hsdf.num_nodes h);
  for e = 0 to Hsdf.num_edges h - 1 do
    Alcotest.(check bool) "delay >= 0" true (h.delay.(e) >= 0);
    Alcotest.(check bool) "node range" true
      (h.src.(e) >= 0 && h.src.(e) < 4 && h.dst.(e) >= 0 && h.dst.(e) < 4)
  done

(* The expansion's edges as (src, dst, delay) triples, in array order. *)
let edge_list (h : Hsdf.t) =
  List.init (Hsdf.num_edges h) (fun e -> (h.src.(e), h.dst.(e), h.delay.(e)))

let check_sorted what (h : Hsdf.t) =
  for e = 1 to Hsdf.num_edges h - 1 do
    if compare (h.src.(e - 1), h.dst.(e - 1)) (h.src.(e), h.dst.(e)) >= 0 then
      Alcotest.failf "%s: edge %d (%d, %d) does not follow (%d, %d)" what e h.src.(e)
        h.dst.(e) h.src.(e - 1) h.dst.(e - 1)
  done

let test_expand_sorted_least_delay () =
  (* Two parallel channels x -> y, one with no initial token and one with
     one, make the pair (x, y) arise with delays 0 and 1, in either channel
     order: the expansion keeps one edge for it, with delay 0. *)
  List.iter
    (fun channels ->
      let g =
        Graph.create ~name:"parallel" ~actors:[| ("x", 2.); ("y", 3.) |] ~channels
      in
      let h = Hsdf.expand g in
      check_sorted "parallel" h;
      Alcotest.(check (list (triple int int int)))
        "edges" [ (0, 0, 1); (0, 1, 0); (1, 0, 1); (1, 1, 1) ] (edge_list h))
    [
      [| (0, 1, 1, 1, 0); (0, 1, 1, 1, 1); (1, 0, 1, 1, 1) |];
      [| (0, 1, 1, 1, 1); (0, 1, 1, 1, 0); (1, 0, 1, 1, 1) |];
    ];
  (* A given repetition vector yields the same expansion. *)
  let g = Fixtures.graph_a () in
  Alcotest.(check (list (triple int int int)))
    "given repetition"
    (edge_list (Hsdf.expand g))
    (edge_list (Hsdf.expand ~repetition:(Repetition.compute_exn g) g))

let prop_expand_sorted =
  Fixtures.qcheck_case ~count:200 "expanded edges strictly sorted" Fixtures.graph_gen
    (fun g ->
      check_sorted g.name (Hsdf.expand g);
      true)

(* Nodes and edges per expansion, one edge per pair of firings: the
   fixtures, then the paper workload's ten apps (seed 2007). *)
let test_expansion_sizes () =
  let sizes (g : Graph.t) =
    let h = Hsdf.expand g in
    (g.name, Hsdf.num_nodes h, Hsdf.num_edges h)
  in
  Alcotest.(check (list (triple string int int)))
    "fixtures"
    [ ("A", 4, 9); ("B", 4, 9); ("pipe", 2, 4); ("single", 1, 1); ("dead", 2, 4) ]
    (List.map sizes
       [
         Fixtures.graph_a ();
         Fixtures.graph_b ();
         Fixtures.pipeline ();
         Fixtures.single ();
         Fixtures.deadlocked ();
       ]);
  let w = Exp.Workload.make ~seed:2007 ~num_apps:10 ~procs:10 () in
  Alcotest.(check (list (triple string int int)))
    "paper apps"
    [
      ("A", 24, 63); ("B", 18, 47); ("C", 14, 41); ("D", 22, 61); ("E", 16, 42);
      ("F", 20, 53); ("G", 18, 47); ("H", 21, 55); ("I", 22, 61); ("J", 12, 33);
    ]
    (Array.to_list
       (Array.map (fun (a : Contention.Analysis.app) -> sizes a.graph) w.apps))

let test_expand_homogeneous_identity () =
  (* A homogeneous graph expands to itself (plus self-loops). *)
  let h = Hsdf.expand (Fixtures.pipeline ()) in
  Alcotest.(check int) "nodes" 2 (Hsdf.num_nodes h);
  Fixtures.check_float "period preserved" 8. (Hsdf.period (Fixtures.pipeline ()))

let test_paper_period () =
  Fixtures.check_float ~eps:1e-6 "Per(A)" 300. (Hsdf.period (Fixtures.graph_a ()));
  Fixtures.check_float ~eps:1e-6 "Per(B)" 300. (Hsdf.period (Fixtures.graph_b ()))

let test_mcm_simple_cycle () =
  (* Triangle: ratio (1+2+3)/2 = 3. *)
  let edges = [| (0, 1, 1., 0); (1, 2, 2., 1); (2, 0, 3., 1) |] in
  match Mcm.max_cycle_ratio ~nodes:3 edges with
  | Some r -> Fixtures.check_float ~eps:1e-6 "triangle" 3. r
  | None -> Alcotest.fail "no cycle found"

let test_mcm_picks_maximum () =
  (* Two disjoint cycles with ratios 2 and 5: the answer is 5. *)
  let edges = [| (0, 1, 2., 1); (1, 0, 2., 1); (2, 3, 5., 1); (3, 2, 5., 1) |] in
  match Mcm.max_cycle_ratio ~nodes:4 edges with
  | Some r -> Fixtures.check_float ~eps:1e-6 "max of cycles" 5. r
  | None -> Alcotest.fail "no cycle found"

let test_mcm_acyclic () =
  let edges = [| (0, 1, 1., 0); (1, 2, 1., 1) |] in
  Alcotest.(check bool) "acyclic -> None" true
    (Mcm.max_cycle_ratio ~nodes:3 edges = None)

let test_mcm_zero_delay_cycle () =
  let edges = [| (0, 1, 1., 0); (1, 0, 1., 0) |] in
  match Mcm.max_cycle_ratio ~nodes:2 edges with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero-delay cycle accepted"

let test_mcm_negative_inputs () =
  match Mcm.max_cycle_ratio ~nodes:2 [| (0, 1, -1., 0); (1, 0, 1., 1) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative weight accepted"

let test_positive_cycle_detection () =
  Alcotest.(check bool) "positive cycle" true
    (Mcm.has_positive_cycle ~nodes:2 [| (0, 1, 1.); (1, 0, -0.5) |]);
  Alcotest.(check bool) "no positive cycle" false
    (Mcm.has_positive_cycle ~nodes:2 [| (0, 1, 1.); (1, 0, -2.) |]);
  Alcotest.(check bool) "empty graph" false (Mcm.has_positive_cycle ~nodes:0 [||])

(* The two period engines agree on random graphs — the central
   cross-validation that replaces the paper's reliance on SDF3. *)
let prop_engines_agree =
  Fixtures.qcheck_case ~count:80 "statespace = mcm" Fixtures.graph_gen (fun g ->
      let ps = Statespace.period_exn g in
      let ph = Hsdf.period g in
      Fixtures.float_eq ~eps:1e-5 ps ph)

let prop_engines_agree_fractional =
  Fixtures.qcheck_case ~count:40 "statespace = mcm (perturbed times)"
    Fixtures.graph_gen (fun g ->
      (* Perturb times to non-integers to exercise scaling paths. *)
      let times = Array.map (fun t -> t +. 0.25) (Graph.exec_times g) in
      let g = Graph.with_exec_times g times in
      Fixtures.float_eq ~eps:1e-5 (Statespace.period_exn g) (Hsdf.period g))

let suite =
  [
    Alcotest.test_case "expand counts" `Quick test_expand_counts;
    Alcotest.test_case "expand sorted, least delay" `Quick test_expand_sorted_least_delay;
    prop_expand_sorted;
    Alcotest.test_case "expansion sizes pinned" `Quick test_expansion_sizes;
    Alcotest.test_case "homogeneous identity" `Quick test_expand_homogeneous_identity;
    Alcotest.test_case "paper periods" `Quick test_paper_period;
    Alcotest.test_case "mcm simple cycle" `Quick test_mcm_simple_cycle;
    Alcotest.test_case "mcm maximum" `Quick test_mcm_picks_maximum;
    Alcotest.test_case "mcm acyclic" `Quick test_mcm_acyclic;
    Alcotest.test_case "mcm zero-delay cycle" `Quick test_mcm_zero_delay_cycle;
    Alcotest.test_case "mcm invalid input" `Quick test_mcm_negative_inputs;
    Alcotest.test_case "positive cycle detection" `Quick test_positive_cycle_detection;
    prop_engines_agree;
    prop_engines_agree_fractional;
  ]
