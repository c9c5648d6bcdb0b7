type fig5 = { app_names : string array; series : (string * float array) list }

let complexity_of : Contention.Analysis.estimator -> string = function
  | Worst_case -> "O(n)"
  | Composability -> "O(n)"
  | Order m -> Printf.sprintf "O(n^%d)" m
  | Exact -> "O(n^n)"

let display_name : Contention.Analysis.estimator -> string = function
  | Worst_case -> "Analyzed Worst Case"
  | Order 4 -> "Probabilistic Fourth Order"
  | Order 2 -> "Probabilistic Second Order"
  | Order m -> Printf.sprintf "Probabilistic Order %d" m
  | Composability -> "Composability-based"
  | Exact -> "Probabilistic Exact"

let fig5 ?(horizon = 500_000.) (w : Workload.t) =
  let napps = Workload.num_apps w in
  let usecase = Contention.Usecase.full ~napps in
  let iso = Workload.isolation_periods w in
  let normalise periods = Array.mapi (fun i p -> p /. iso.(i)) periods in
  let apps = Workload.analysis_apps w usecase in
  let estimated est =
    let results = Contention.Analysis.estimate est apps in
    normalise
      (Array.of_list (List.map (fun (r : Contention.Analysis.estimate) -> r.period) results))
  in
  let sim_results, _ = Desim.Engine.run ~horizon ~procs:w.procs (Workload.sim_apps w usecase) in
  let sim = normalise (Array.map (fun r -> r.Desim.Engine.avg_period) sim_results) in
  let sim_worst = normalise (Array.map (fun r -> r.Desim.Engine.max_period) sim_results) in
  {
    app_names = Workload.names w;
    series =
      List.map
        (fun est -> (display_name est, estimated est))
        Contention.Analysis.all_paper_estimators
      @ [
          ("Simulated", sim);
          ("Simulated Worst Case", sim_worst);
          ("Original", Array.map (fun _ -> 1.) iso);
        ];
  }

let render_fig5 (f : fig5) =
  let header = "Application" :: List.map fst f.series in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i name ->
           name
           :: List.map
                (fun (_, values) -> Repro_stats.Table.float_cell ~decimals:2 values.(i))
                f.series)
         f.app_names)
  in
  "Figure 5: period of applications, normalised to isolation period\n"
  ^ "(all applications running concurrently — maximum contention)\n\n"
  ^ Repro_stats.Table.render ~header rows
  ^ "\n"
  ^ Repro_stats.Chart.grouped_bars ~labels:(Array.to_list f.app_names) ~series:f.series ()

type table1_row = {
  method_name : string;
  throughput_pct : float;
  period_pct : float;
  complexity : string;
}

let table1_order : Contention.Analysis.estimator list =
  [ Worst_case; Composability; Order 4; Order 2 ]

let paper_row_name : Contention.Analysis.estimator -> string = function
  | Worst_case -> "Worst Case"
  | Composability -> "Composability"
  | Order 4 -> "Fourth Order"
  | Order 2 -> "Second Order"
  | Order m -> Printf.sprintf "Order %d" m
  | Exact -> "Exact"

let table1 (s : Sweep.t) =
  let rows = List.filter (fun e -> List.mem e s.estimators) table1_order in
  let rows = rows @ List.filter (fun e -> not (List.mem e rows)) s.estimators in
  List.map
    (fun est ->
      {
        method_name = paper_row_name est;
        throughput_pct = Sweep.inaccuracy_throughput s est;
        period_pct = Sweep.inaccuracy_period s est;
        complexity = complexity_of est;
      })
    rows

let render_table1 rows =
  let header = [ "Method"; "Throughput (%)"; "Period (%)"; "Complexity" ] in
  let cells =
    List.map
      (fun r ->
        [
          r.method_name;
          Repro_stats.Table.float_cell r.throughput_pct;
          Repro_stats.Table.float_cell r.period_pct;
          r.complexity;
        ])
      rows
  in
  "Table 1: measured inaccuracy vs simulation, averaged over all use-cases\n\n"
  ^ Repro_stats.Table.render ~header cells

type fig6 = { sizes : float array; inaccuracy : (string * float array) list }

let fig6 (s : Sweep.t) =
  let series =
    List.map
      (fun est ->
        let pairs = Sweep.inaccuracy_by_size s est in
        (display_name est, pairs))
      s.estimators
  in
  let sizes =
    match series with
    | [] -> [||]
    | (_, pairs) :: _ -> Array.map (fun (k, _) -> float_of_int k) pairs
  in
  { sizes; inaccuracy = List.map (fun (n, pairs) -> (n, Array.map snd pairs)) series }

let render_fig6 (f : fig6) =
  let header = "Apps" :: List.map fst f.inaccuracy in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i size ->
           Printf.sprintf "%.0f" size
           :: List.map
                (fun (_, values) -> Repro_stats.Table.float_cell values.(i))
                f.inaccuracy)
         f.sizes)
  in
  "Figure 6: inaccuracy of period estimates (mean abs % diff vs simulation)\n"
  ^ "as a function of the number of concurrently executing applications\n\n"
  ^ Repro_stats.Table.render ~header rows
  ^ "\n"
  ^ Repro_stats.Chart.lines ~x_label:"concurrent applications"
      ~y_label:"period inaccuracy (%)" ~xs:f.sizes ~series:f.inaccuracy ()

let render_timing (s : Sweep.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Timing: full use-case sweep on this machine\n\n";
  Buffer.add_string buf
    (Printf.sprintf "  simulation of %d use-cases: %.2f s\n"
       (List.length (List.sort_uniq compare (List.map (fun o -> o.Sweep.usecase) s.observations)))
       s.timing.simulation_s);
  List.iter
    (fun (est, t) ->
      Buffer.add_string buf
        (Printf.sprintf "  analysis (%s): %.2f s  (%.0fx faster than simulation)\n"
           (Contention.Analysis.estimator_name est)
           t
           (s.timing.simulation_s /. Float.max 1e-9 t)))
    s.timing.analysis_s;
  Buffer.contents buf
