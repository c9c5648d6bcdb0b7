(* Golden pins for the evaluation artefacts (Figure 5, Table 1, Figure 6)
   on a small fixed-seed workload.  Everything here is deterministic — the
   sweep is bit-identical across job counts and the chart renderers are
   pure — so any drift means the estimator algebra, the simulator, or the
   rendering changed.  render_timing is wall-clock-dependent and is
   deliberately not pinned. *)

let workload () =
  Exp.Workload.make ~seed:7 ~num_apps:3 ~procs:2
    ~params:
      {
        Sdfgen.Generator.default_params with
        actors_min = 3;
        actors_max = 4;
        exec_min = 2;
        exec_max = 12;
      }
    ()

let sweep w = Exp.Sweep.run ~horizon:10_000. w

(* (method, throughput %, period %, complexity) in the paper's row order. *)
let golden_table1 =
  [
    ("Worst Case", 35.028888523910162, 65.053350640923142, "O(n)");
    ("Composability", 11.206347302287439, 9.5654775620192805, "O(n)");
    ("Fourth Order", 11.155772118240135, 9.4737929504828475, "O(n^4)");
    ("Second Order", 11.198243252102232, 9.5471210601367087, "O(n^2)");
  ]

let golden_fig6 =
  [
    ( "Analyzed Worst Case",
      [| 20.614035087559262; 75.648148147864475; 88.303071180404388 |] );
    ( "Probabilistic Fourth Order",
      [| 2.0251521658265861; 10.806518591241732; 14.256982453621342 |] );
    ( "Probabilistic Second Order",
      [| 2.0251521658265861; 10.90414717980577; 14.355037715108708 |] );
    ( "Composability-based",
      [| 2.0251521658265861; 10.921920027471616; 14.392918027307298 |] );
  ]

let legend_order =
  [
    "Analyzed Worst Case";
    "Probabilistic Fourth Order";
    "Probabilistic Second Order";
    "Composability-based";
    "Simulated";
    "Simulated Worst Case";
    "Original";
  ]

let test_table1_golden () =
  let s = sweep (workload ()) in
  let rows = Exp.Figures.table1 s in
  Alcotest.(check int) "row count" (List.length golden_table1) (List.length rows);
  List.iter2
    (fun (name, tp, per, cx) (r : Exp.Figures.table1_row) ->
      Alcotest.(check string) "method" name r.method_name;
      Alcotest.(check string) (name ^ " complexity") cx r.complexity;
      Fixtures.check_float ~eps:1e-9 (name ^ " throughput")  tp
        r.throughput_pct;
      Fixtures.check_float ~eps:1e-9 (name ^ " period")  per r.period_pct)
    golden_table1 rows;
  let rendered = Exp.Figures.render_table1 rows in
  Alcotest.(check bool) "title" true
    (Fixtures.contains ~affix:"Table 1: measured inaccuracy" rendered);
  List.iter
    (fun (name, _, _, cx) ->
      Alcotest.(check bool) (name ^ " in render") true
        (Fixtures.contains ~affix:name rendered);
      Alcotest.(check bool) (cx ^ " in render") true
        (Fixtures.contains ~affix:cx rendered))
    golden_table1;
  Alcotest.(check string) "render deterministic" rendered
    (Exp.Figures.render_table1 (Exp.Figures.table1 s))

let test_fig5 () =
  let w = workload () in
  let f = Exp.Figures.fig5 ~horizon:10_000. w in
  Alcotest.(check (array string)) "app names" (Exp.Workload.names w) f.app_names;
  Alcotest.(check (list string)) "legend order" legend_order
    (List.map fst f.series);
  let series name = List.assoc name f.series in
  Array.iter
    (fun v -> Fixtures.check_float ~eps:0. "original normalised"  1. v)
    (series "Original");
  (* Normalisation sanity: every period is at least the isolation period,
     and the analyzed worst case dominates both simulated series. *)
  let wc = series "Analyzed Worst Case" in
  List.iter
    (fun name ->
      Array.iteri
        (fun i v ->
          if v < 1. -. 1e-6 then
            Alcotest.failf "%s app %d below isolation: %g" name i v;
          if v > wc.(i) +. 1e-6 then
            Alcotest.failf "%s app %d above worst case: %g > %g" name i v
              wc.(i))
        (series name))
    [ "Simulated"; "Simulated Worst Case" ];
  (* The whole figure is deterministic, renderer included. *)
  let f' = Exp.Figures.fig5 ~horizon:10_000. w in
  Alcotest.(check string) "fig5 deterministic"
    (Exp.Figures.render_fig5 f)
    (Exp.Figures.render_fig5 f');
  let rendered = Exp.Figures.render_fig5 f in
  Alcotest.(check bool) "fig5 title" true
    (Fixtures.contains ~affix:"Figure 5: period of applications" rendered);
  Array.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in fig5 render") true
        (Fixtures.contains ~affix:name rendered))
    f.app_names

let test_fig6_golden () =
  let s = sweep (workload ()) in
  let f = Exp.Figures.fig6 s in
  Alcotest.(check (array (float 0.))) "sizes 1..n" [| 1.; 2.; 3. |] f.sizes;
  Alcotest.(check (list string)) "series names"
    (List.map fst golden_fig6)
    (List.map fst f.inaccuracy);
  List.iter
    (fun (name, expected) ->
      let actual = List.assoc name f.inaccuracy in
      Array.iteri
        (fun i e ->
          Fixtures.check_float
            (Printf.sprintf "%s at size %d" name (i + 1))
            ~eps:1e-9 e actual.(i))
        expected)
    golden_fig6;
  let rendered = Exp.Figures.render_fig6 f in
  Alcotest.(check bool) "fig6 title" true
    (Fixtures.contains ~affix:"Figure 6: inaccuracy" rendered);
  (* The header is a plain string, not a format: one percent sign. *)
  Alcotest.(check bool) "fig6 header percent sign" true
    (Fixtures.contains ~affix:"(mean abs % diff vs simulation)" rendered);
  Alcotest.(check string) "fig6 render deterministic" rendered
    (Exp.Figures.render_fig6 f)

let test_complexity_of () =
  List.iter
    (fun (est, expected) ->
      Alcotest.(check string) expected expected (Exp.Figures.complexity_of est))
    [
      (Contention.Analysis.Worst_case, "O(n)");
      (Contention.Analysis.Composability, "O(n)");
      (Contention.Analysis.Order 2, "O(n^2)");
      (Contention.Analysis.Order 4, "O(n^4)");
      (Contention.Analysis.Exact, "O(n^n)");
    ]

let test_render_timing_smoke () =
  (* Wall-clock numbers are machine-dependent; only the shape is checked. *)
  let s = sweep (workload ()) in
  let rendered = Exp.Figures.render_timing s in
  Alcotest.(check bool) "timing header" true
    (Fixtures.contains ~affix:"Timing: full use-case sweep" rendered);
  Alcotest.(check bool) "mentions simulation" true
    (Fixtures.contains ~affix:"simulation of 7 use-cases" rendered)

let suite =
  [
    Alcotest.test_case "complexity strings" `Quick test_complexity_of;
    Alcotest.test_case "Table 1 golden on fixed workload" `Slow
      test_table1_golden;
    Alcotest.test_case "Figure 5 structure and determinism" `Slow test_fig5;
    Alcotest.test_case "Figure 6 golden on fixed workload" `Slow
      test_fig6_golden;
    Alcotest.test_case "timing render smoke" `Slow test_render_timing_smoke;
  ]
