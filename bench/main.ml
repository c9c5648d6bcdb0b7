(* Reproduction harness: regenerates every table and figure of
   EXPERIMENTS.md.

   Running this executable reproduces the paper's evaluation (Section 5) on
   the substitute substrate, then the ablations and extensions:

     FIG5    normalized periods, all 10 applications concurrent
     SWEEP   every use-case simulated and estimated (Table 1 and Fig. 6)
     TABLE1  mean inaccuracy over all 1023 use-cases + complexity
     FIG6    inaccuracy vs number of concurrent applications
     ABLATION-ORDER      accuracy of Eq. 5 truncation order m
     ABLATION-ITERATION  single-pass vs fixed-point refinement
     ABLATION-ENGINE     state-space vs HSDF/MCM vs exact-rational backends
     ABLATION-STOCHASTIC Section 6 variable execution times vs replicated sim
     ABLATION-CALIBRATION re-estimation on measured periods (Section 6)
     ABLATION-DENSITY    accuracy vs per-node utilisation (fewer processors)
     SCENARIO            expected periods under a usage model
     SEEDS               Table 1 on freshly generated workloads
     CAPACITY            buffer/throughput trade-off (references [16]/[20])
     ARBITRATION         FCFS vs fixed priority vs static order ([2])
     TDMA                the preemptive TDMA worst-case baseline ([3])
     EXPLORE             estimator-in-the-loop mapping search

   The workload is fixed: seed 2007, 10 applications on 10 processors, a
   500,000 time-unit simulation horizon and every use-case.  For another
   seed or size run `contention experiment --seed/--apps/--horizon`.  The
   bench takes no argument (any argument exits 2).  It prints no wall-clock
   figure, so its output is the same on every host and at every job count:
   `bench/figures.golden` pins it byte for byte, and CI diffs against it.
   After a change that moves a figure on purpose, regenerate it with

     dune exec bench/main.exe > bench/figures.golden

   It exits 1 when one of its own checks fails: the sweep, run on at least
   two domains, differs from its re-run on one, or a served isolation
   period in ABLATION-ENGINE differs from the exact rational one or by more
   than 1e-9 relative from HSDF/MCM.  Wall-clock costs live elsewhere:
   `contention experiment timing` times analysis against simulation, and
   perfbench/ measures the sweep, serve and admit paths with their spread.

   Environment:
     CONTENTION_JOBS      domains for the use-case sweep, raised to 2 if
                          lower (default: recommended domain count - 1); the
                          sweep is also re-run on one domain and must agree
                          bit for bit
     CONTENTION_TRACE     write a Chrome/Perfetto trace of the whole run to
                          this file (spans recording is off otherwise) *)

let seed = 2007
let horizon = 500_000.
let num_apps = 10
let trace_file = Sys.getenv_opt "CONTENTION_TRACE"
let () = if trace_file <> None then Obs.Span.set_enabled true

let () =
  if Array.length Sys.argv > 1 then begin
    Printf.eprintf
      "bench: unexpected argument %s (the bench takes none; for another seed \
       or size run `contention experiment`)\n"
      Sys.argv.(1);
    exit 2
  end

(* A section whose own check fails stops the run: CI's bench job gates on
   the exit status. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 1)
    fmt

let section name =
  Printf.printf "\n%s\n%s %s\n%s\n" (String.make 72 '=') "SECTION" name
    (String.make 72 '=')

let () = Printf.printf "contention bench: seed=%d apps=%d horizon=%.0f\n" seed num_apps horizon

let workload = Exp.Workload.make ~seed ~num_apps ~procs:10 ()

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)

let () =
  section "FIG5";
  print_string (Exp.Figures.render_fig5 (Exp.Figures.fig5 ~horizon workload))

(* ------------------------------------------------------------------ *)
(* The sweep behind Table 1 and Figure 6                               *)

(* At least two domains, so that the re-run below always compares one
   domain with several, whatever the host's CPU count. *)
let jobs = Int.max 2 (Exp.Pool.default_jobs ())
let sweep_usecases = Contention.Usecase.all ~napps:num_apps

let sweep =
  section "SWEEP";
  Printf.printf "sweeping %d use-cases (simulation horizon %.0f)...\n%!"
    (List.length sweep_usecases) horizon;
  let last = ref 0 in
  let progress done_ total =
    let pct = 100 * done_ / total in
    if pct >= !last + 10 then begin
      last := pct;
      Printf.printf "  %d%% (%d/%d)\n%!" pct done_ total
    end
  in
  let s = Exp.Sweep.run ~horizon ~usecases:sweep_usecases ~progress ~jobs workload in
  (* A re-run of the identical sweep on one domain must agree bit for bit:
     the sweep is deterministic in the number of domains.  Structural [compare]
     rather than [<>]: a use-case whose simulation completes no iteration
     records a NaN period (a valid observation filtered later), and
     NaN <> NaN would cry wolf. *)
  let sequential = Exp.Sweep.run ~horizon ~usecases:sweep_usecases ~jobs:1 workload in
  if compare sequential.observations s.observations <> 0 then
    fail "sequential and parallel sweep observations differ";
  s

let () =
  section "TABLE1";
  print_string (Exp.Figures.render_table1 (Exp.Figures.table1 sweep));
  section "FIG6";
  print_string (Exp.Figures.render_fig6 (Exp.Figures.fig6 sweep))

(* ------------------------------------------------------------------ *)
(* Ablation: order of the Equation 5 truncation                        *)

let full_usecase = Contention.Usecase.full ~napps:num_apps
let full_apps = Exp.Workload.analysis_apps workload full_usecase

let simulated_full =
  let results, _ =
    Desim.Engine.run ~horizon ~procs:workload.procs
      (Exp.Workload.sim_apps workload full_usecase)
  in
  Array.map (fun r -> r.Desim.Engine.avg_period) results

let mean_err estimated =
  Repro_stats.Stats.mean
    (List.mapi
       (fun i p -> Repro_stats.Stats.abs_pct_error ~reference:simulated_full.(i) p)
       estimated)

let periods est = List.map (fun (r : Contention.Analysis.estimate) -> r.period) (Contention.Analysis.estimate est full_apps)

let () =
  section "ABLATION-ORDER";
  print_endline
    "Mean abs % period error on the maximum-contention use-case, by truncation order";
  let rows =
    List.map
      (fun est ->
        [ Contention.Analysis.estimator_name est;
          Repro_stats.Table.float_cell ~decimals:2 (mean_err (periods est)) ])
      [ Contention.Analysis.Worst_case; Contention.Analysis.Order 2;
        Contention.Analysis.Order 3; Contention.Analysis.Order 4;
        Contention.Analysis.Order 6; Contention.Analysis.Composability;
        Contention.Analysis.Exact ]
  in
  print_string (Repro_stats.Table.render ~header:[ "Estimator"; "Err (%)" ] rows)

(* ------------------------------------------------------------------ *)
(* Ablation: single pass vs fixed-point refinement                     *)

let () =
  section "ABLATION-ITERATION";
  print_endline "Fixed-point refinement of blocking probabilities (Order 2)";
  let rows =
    List.map
      (fun k ->
        let estimates =
          Contention.Analysis.estimate ~iterations:k (Contention.Analysis.Order 2)
            full_apps
        in
        let ps = List.map (fun (r : Contention.Analysis.estimate) -> r.period) estimates in
        [ string_of_int k; Repro_stats.Table.float_cell ~decimals:2 (mean_err ps) ])
      [ 1; 2; 3; 5 ]
  in
  print_string (Repro_stats.Table.render ~header:[ "Iterations"; "Err (%)" ] rows)

(* ------------------------------------------------------------------ *)
(* Ablation: period computation backends                               *)

let () =
  section "ABLATION-ENGINE";
  print_endline "Served isolation periods against the reference engines";
  let rows =
    Array.to_list
      (Array.map
         (fun (a : Contention.Analysis.app) ->
           let name = a.graph.Sdf.Graph.name and served = a.isolation_period in
           let ss = Sdf.Statespace.period_exn a.graph in
           let mcm = Sdf.Hsdf.period a.graph in
           let exact = Sdf.Hsdf.period_rational a.graph in
           let r = Sdf.Rational.to_float exact in
           (* The workload's times are integers, so the served period is the
              rational one correctly rounded; the bisection stays within the
              period contract's 1e-9. *)
           if not (Float.equal served r) then
             fail "engine: %s served %.17g, exact rational %.17g" name served r;
           if Float.abs (served -. mcm) > 1e-9 *. served then
             fail "engine: %s served %.17g, HSDF/MCM %.17g" name served mcm;
           let rel x = Float.abs (x -. r) /. r in
           [ name;
             Repro_stats.Table.float_cell ~decimals:3 served;
             Repro_stats.Table.float_cell ~decimals:3 ss;
             Repro_stats.Table.float_cell ~decimals:3 mcm;
             Sdf.Rational.to_string exact;
             Printf.sprintf "%.1e" (Float.max (rel ss) (rel mcm)) ])
         workload.apps)
  in
  print_string
    (Repro_stats.Table.render
       ~header:
         [ "App"; "Served (kernel)"; "Statespace"; "HSDF/MCM"; "Exact rational";
           "Max rel diff" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Ablation: variable execution times (Section 6 extension)            *)

let () =
  section "ABLATION-STOCHASTIC";
  print_endline
    "Estimate vs stochastic simulation as execution-time spread grows\n\
     (apps A and B sharing all ten processors, uniform times, fixed means)";
  let g1 = workload.apps.(0).Contention.Analysis.graph in
  let g2 = workload.apps.(1).Contention.Analysis.graph in
  let m1 = workload.apps.(0).Contention.Analysis.mapping in
  let m2 = workload.apps.(1).Contention.Analysis.mapping in
  let rows =
    List.map
      (fun spread ->
        let dists_of (g : Sdf.Graph.t) =
          Array.map
            (fun (a : Sdf.Graph.actor) ->
              if spread = 0. then Contention.Dist.Constant a.exec_time
              else
                Contention.Dist.Uniform
                  {
                    lo = a.exec_time *. (1. -. spread);
                    hi = a.exec_time *. (1. +. spread);
                  })
            g.actors
        in
        let d1 = dists_of g1 and d2 = dists_of g2 in
        let a1 = Contention.Analysis.app ~procs:10 g1 ~mapping:m1 ~distributions:d1 in
        let a2 = Contention.Analysis.app ~procs:10 g2 ~mapping:m2 ~distributions:d2 in
        let estimated =
          match Contention.Analysis.estimate (Contention.Analysis.Order 2) [ a1; a2 ] with
          | r :: _ -> r.Contention.Analysis.period
          | [] -> assert false
        in
        let summaries =
          Exp.Replicate.run ~replications:7
            ~horizon:(Float.max (horizon /. 5.) 150_000.)
            ~seed ~procs:10
            ~distributions:[| d1; d2 |]
            [|
              { Desim.Engine.graph = g1; mapping = m1 };
              { Desim.Engine.graph = g2; mapping = m2 };
            |]
        in
        let s = summaries.(0) in
        [
          Printf.sprintf "+/-%.0f%%" (100. *. spread);
          Repro_stats.Table.float_cell ~decimals:1 estimated;
          Printf.sprintf "%s +/- %s"
            (Repro_stats.Table.float_cell ~decimals:1 s.Exp.Replicate.mean)
            (Repro_stats.Table.float_cell ~decimals:1 s.Exp.Replicate.ci95);
          Repro_stats.Table.float_cell ~decimals:1
            (Repro_stats.Stats.abs_pct_error ~reference:s.Exp.Replicate.mean estimated);
        ])
      [ 0.; 0.3; 0.6; 0.9 ]
  in
  print_string
    (Repro_stats.Table.render
       ~header:[ "Spread"; "Estimated"; "Simulated (95% CI)"; "Err (%)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Ablation: run-time calibration (Section 6)                          *)

let () =
  section "ABLATION-CALIBRATION";
  print_endline
    "Re-estimating with measured (simulated) periods as the probability\n\
     base — the paper's Section 6 run-time suggestion — on the full use-case.\n\
     Negative result: for re-estimating the SAME mix this double-counts the\n\
     contention discount (the measured periods already include the waiting),\n\
     so the calibrated estimate undershoots; the suggestion pays off for\n\
     admission control, where a NEW application is estimated against the\n\
     currently measured system (see Contention.Admission).";
  let measured = List.mapi (fun i a -> (a, simulated_full.(i))) full_apps in
  let rows =
    List.map
      (fun est ->
        let plain = mean_err (periods est) in
        let calibrated =
          mean_err
            (List.map
               (fun (r : Contention.Analysis.estimate) -> r.period)
               (Contention.Analysis.estimate_calibrated est measured))
        in
        [ Contention.Analysis.estimator_name est;
          Repro_stats.Table.float_cell ~decimals:2 plain;
          Repro_stats.Table.float_cell ~decimals:2 calibrated ])
      [ Contention.Analysis.Order 2; Contention.Analysis.Order 4;
        Contention.Analysis.Composability ]
  in
  print_string
    (Repro_stats.Table.render
       ~header:[ "Estimator"; "Plain err (%)"; "Calibrated err (%)" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Ablation: contention density (processor count)                      *)

let () =
  section "ABLATION-DENSITY";
  print_endline
    "Accuracy vs contention density: the same six applications squeezed onto\n\
     fewer processors (full use-case, mean abs % period error vs simulation)";
  let rows =
    List.map
      (fun procs ->
        let w = Exp.Workload.make ~seed ~num_apps:6 ~procs () in
        let uc = Contention.Usecase.full ~napps:6 in
        let apps = Exp.Workload.analysis_apps w uc in
        let sim, _ =
          Desim.Engine.run ~horizon:(Float.min horizon 200_000.) ~procs
            (Exp.Workload.sim_apps w uc)
        in
        let err est =
          let estimates = Contention.Analysis.estimate est apps in
          Repro_stats.Stats.mean
            (List.mapi
               (fun i (r : Contention.Analysis.estimate) ->
                 let s = sim.(i).Desim.Engine.avg_period in
                 if Float.is_nan s then 0.
                 else Repro_stats.Stats.abs_pct_error ~reference:s r.period)
               estimates)
        in
        let util =
          let stats = snd (Desim.Engine.run ~horizon:50_000. ~procs (Exp.Workload.sim_apps w uc)) in
          Repro_stats.Stats.mean_arr (Desim.Engine.utilisation stats)
        in
        [
          string_of_int procs;
          Repro_stats.Table.float_cell ~decimals:2 util;
          Repro_stats.Table.float_cell (err Contention.Analysis.Worst_case);
          Repro_stats.Table.float_cell (err (Contention.Analysis.Order 2));
          Repro_stats.Table.float_cell (err (Contention.Analysis.Order 4));
          Repro_stats.Table.float_cell (err Contention.Analysis.Exact);
        ])
      [ 10; 8; 6; 4; 3 ]
  in
  print_string
    (Repro_stats.Table.render
       ~header:
         [ "Procs"; "Mean util"; "Worst case"; "Second order"; "Fourth order"; "Exact" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Expected performance under a usage model                            *)

let () =
  section "SCENARIO";
  print_endline
    "Expected period per application when every application is independently\n\
     active half the time (product-form usage model over the sweep)";
  print_string (Exp.Scenario.render (Exp.Scenario.uniform ~napps:num_apps 0.5) sweep)

(* ------------------------------------------------------------------ *)
(* Robustness: do the conclusions survive a different random workload? *)

let () =
  section "SEEDS";
  print_endline
    "Table-1 period inaccuracies on freshly generated workloads (sampled\n\
     sweep, every 16th use-case) — the conclusions are seed-independent";
  let rows =
    List.map
      (fun s ->
        let w = Exp.Workload.make ~seed:s ~num_apps ~procs:10 () in
        let usecases =
          let arr = Array.of_list (Contention.Usecase.all ~napps:num_apps) in
          Sdfgen.Rng.shuffle (Sdfgen.Rng.create s) arr;
          List.filteri (fun i _ -> i mod 16 = 0) (Array.to_list arr)
        in
        let sweep = Exp.Sweep.run ~horizon:(Float.min horizon 200_000.) ~usecases w in
        let cell est = Repro_stats.Table.float_cell (Exp.Sweep.inaccuracy_period sweep est) in
        [ string_of_int s;
          cell Contention.Analysis.Worst_case;
          cell (Contention.Analysis.Order 4);
          cell (Contention.Analysis.Order 2);
          cell Contention.Analysis.Composability ])
      [ seed; seed + 1; seed + 2 ]
  in
  print_string
    (Repro_stats.Table.render
       ~header:[ "Seed"; "Worst case"; "Fourth order"; "Second order"; "Composability" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Buffer/throughput trade-off (references [16]/[20] of the paper)     *)

let () =
  section "CAPACITY";
  let g = workload.apps.(0).Contention.Analysis.graph in
  Printf.printf "Buffer/throughput trade-off for application A (period %.0f unbounded)\n\n"
    (Sdf.Statespace.period_exn g);
  let curve = Sdf.Capacity.sweep_uniform g ~max_capacity:12 in
  let rows =
    List.map
      (fun (k, period) ->
        [
          string_of_int k;
          (match period with
          | None -> "deadlock"
          | Some p -> Repro_stats.Table.float_cell ~decimals:1 p);
        ])
      curve
  in
  print_string
    (Repro_stats.Table.render ~header:[ "Uniform capacity"; "Period" ] rows);
  let sufficient = Sdf.Capacity.sufficient_capacities g in
  Printf.printf "\nschedule-preserving capacities: total %d tokens over %d channels\n"
    (Array.fold_left ( + ) 0 sufficient)
    (Array.length sufficient);
  (* A deeply pipelined graph shows the actual gradient: more buffering buys
     more overlap until the bottleneck actor saturates. *)
  let pipeline =
    Sdf.Graph.create ~name:"pipeline4"
      ~actors:[| ("s0", 20.); ("s1", 35.); ("s2", 25.); ("s3", 30.) |]
      ~channels:
        [| (0, 1, 1, 1, 0); (1, 2, 1, 1, 0); (2, 3, 1, 1, 0); (3, 0, 1, 1, 4) |]
  in
  Printf.printf
    "\nFour-stage pipeline (bottleneck 35, 4 frames in flight) under uniform bounds:\n\n";
  let rows =
    List.map
      (fun (k, period) ->
        [
          string_of_int k;
          (match period with
          | None -> "deadlock"
          | Some p -> Repro_stats.Table.float_cell ~decimals:1 p);
        ])
      (Sdf.Capacity.sweep_uniform pipeline ~max_capacity:5)
  in
  print_string (Repro_stats.Table.render ~header:[ "Uniform capacity"; "Period" ] rows)

(* ------------------------------------------------------------------ *)
(* Arbitration policies vs the analysis assumption                     *)

let () =
  section "ARBITRATION";
  print_endline
    "Simulated periods of the full use-case under FCFS (the paper's model),\n\
     non-preemptive fixed priority (app A highest), and a static order\n\
     derived from a steady FCFS window — the related-work [2] arbitration";
  let sim_apps = Exp.Workload.sim_apps workload full_usecase in
  let sim ?on_event arbitration =
    fst (Desim.Engine.run ?on_event ~horizon ~arbitration ~procs:workload.procs sim_apps)
  in
  let trace = Desim.Trace.create () in
  let fcfs = sim ~on_event:(Desim.Trace.on_event trace) Desim.Engine.Fcfs in
  let prio = sim Desim.Engine.Fixed_priority in
  let max_period =
    Array.fold_left (fun acc r -> Float.max acc r.Desim.Engine.avg_period) 0. fcfs
  in
  (* Derive the order from the start of the run so the first scheduled
     firings match the initial token distribution. *)
  let orders =
    Desim.Trace.static_order trace ~procs:workload.procs
      ~window:(0., 8. *. max_period)
  in
  let static = sim (Desim.Engine.Static_order orders) in
  let names = Exp.Workload.names workload in
  let iso = Exp.Workload.isolation_periods workload in
  let static_cell (r : Desim.Engine.result) =
    if Float.is_nan r.avg_period then
      Printf.sprintf "stalled (%d iters)" r.iterations
    else Repro_stats.Table.float_cell r.avg_period
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i name ->
           [
             name;
             Repro_stats.Table.float_cell (iso.(i));
             Repro_stats.Table.float_cell fcfs.(i).Desim.Engine.avg_period;
             Repro_stats.Table.float_cell prio.(i).Desim.Engine.avg_period;
             static_cell static.(i);
           ])
         names)
  in
  print_string
    (Repro_stats.Table.render
       ~header:[ "App"; "Isolation"; "FCFS"; "Fixed priority"; "Static order" ]
       rows);
  print_endline
    "\nA fixed service order freezes one window's interleaving; applications\n\
     with incommensurate rates cannot follow it and stall — the coupling the\n\
     paper's Section 2 holds against static-order analyses, and the reason\n\
     its own approach imposes no ordering."

(* ------------------------------------------------------------------ *)
(* TDMA baseline (related work, reference [3])                         *)

let () =
  section "TDMA";
  print_endline
    "TDMA (wheel 100, one slice per mapped actor): the preemptive simulation\n\
     validates the analytical worst case (simulated <= bound), and both sit\n\
     far above the probabilistic estimate — periods normalised to isolation";
  let iso = Exp.Workload.isolation_periods workload in
  let tdma = Contention.Tdma.estimate ~wheel:100. full_apps in
  let wc = Contention.Analysis.estimate Contention.Analysis.Worst_case full_apps in
  let o2 = Contention.Analysis.estimate (Contention.Analysis.Order 2) full_apps in
  let tdma_sim, _ =
    Desim.Preemptive.run ~horizon ~warmup_iterations:5 ~wheel:100. ~procs:workload.procs
      (Exp.Workload.sim_apps workload full_usecase)
  in
  let rows =
    List.mapi
      (fun i (t : Contention.Analysis.estimate) ->
        [
          (t.for_app.graph : Sdf.Graph.t).name;
          Repro_stats.Table.float_cell ~decimals:2
            ((List.nth o2 i).Contention.Analysis.period /. iso.(i));
          Repro_stats.Table.float_cell ~decimals:2
            ((List.nth wc i).Contention.Analysis.period /. iso.(i));
          Repro_stats.Table.float_cell ~decimals:2
            (tdma_sim.(i).Desim.Engine.avg_period /. iso.(i));
          Repro_stats.Table.float_cell ~decimals:2 (t.period /. iso.(i));
        ])
      tdma
  in
  print_string
    (Repro_stats.Table.render
       ~header:
         [ "App"; "Second order"; "RR worst case"; "TDMA simulated"; "TDMA bound" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Mapping exploration driven by the estimator                         *)

let () =
  section "EXPLORE";
  let graphs =
    Array.to_list
      (Array.map (fun (a : Contention.Analysis.app) -> a.graph) (Array.sub workload.apps 0 4))
  in
  let packed =
    List.map
      (fun (g : Sdf.Graph.t) ->
        (g, Array.init (Sdf.Graph.num_actors g) (fun j -> j mod 2)))
      graphs
  in
  let outcome = Contention.Explore.improve ~max_moves:16 ~procs:10 packed in
  Printf.printf
    "steepest descent on 4 apps / 10 procs: score %.3f -> %.3f, %d moves,\n\
     %d estimator evaluations\n"
    outcome.initial_score outcome.final_score outcome.moves outcome.evaluations

let () =
  (match trace_file with
  | None -> ()
  | Some path ->
      Obs.Span.set_enabled false;
      Obs.Trace.write_file ~path (Obs.Span.drain ());
      Printf.printf "\nwrote trace to %s\n" path);
  print_endline "\nbench: done"
