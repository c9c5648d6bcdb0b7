(* Reproduction harness: regenerates every table and figure of
   EXPERIMENTS.md.

   Running this executable reproduces the paper's evaluation (Section 5) on
   the substitute substrate, then times the pieces with Bechamel
   micro-benchmarks:

     FIG5    normalized periods, all 10 applications concurrent
     TABLE1  mean inaccuracy over all 1023 use-cases + complexity
     FIG6    inaccuracy vs number of concurrent applications
     TIMING  analysis vs simulation wall-clock (the "minutes vs 23 hours" claim)
     ABLATION-ORDER      accuracy/cost of Eq. 5 truncation order m
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
     AUDIT               serve estimate throughput with the shadow audit
                         off, at 1-in-64 and at 1-in-8 sampling
     CLUSTER             open-loop load against one shard vs the full
                         consistent-hash ring (aggregate cache scaling)
     ADMIT               incremental admission joins/s vs a per-join re-fold
                         at a 1,000-application resident population, plus
                         confidence-margin cost per request
     MICRO   Bechamel OLS estimates for kernels and full-path operations

   The workload is fixed: seed 2007, 10 applications on 10 processors, a
   500,000 time-unit simulation horizon and every use-case.  For another
   seed or size run `contention experiment --seed/--apps/--horizon`.  The
   bench takes no argument (any argument exits 2).  It exits 1 when a
   section's own check fails: the parallel sweep differs from the
   sequential one, a cluster run reports errors or completes no request,
   or incremental admission rebuilds or is not faster than the re-fold.

   Environment:
     CONTENTION_JOBS      domains for the use-case sweep (default: recommended
                          domain count - 1; the TIMING section also re-runs
                          the sweep sequentially to report the speedup)
     CONTENTION_TRACE     write a Chrome/Perfetto trace of the whole run to
                          this file (spans recording is off otherwise) *)

open Bechamel

let seed = 2007
let horizon = 500_000.
let num_apps = 10
let quota = 0.5
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

(* All wall-clock deltas below come from the monotonic clock: the bench can
   run for a long time and an NTP step must not bend a timing row. *)
let elapsed_s since = Obs.Clock.elapsed_s ~since

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

let jobs = Exp.Pool.default_jobs ()
let sweep_usecases = Contention.Usecase.all ~napps:num_apps

let sweep, parallel_wall_s =
  section "SWEEP";
  Printf.printf "sweeping %d use-cases (simulation horizon %.0f, %d domains)...\n%!"
    (List.length sweep_usecases) horizon jobs;
  let last = ref 0 in
  let progress done_ total =
    let pct = 100 * done_ / total in
    if pct >= !last + 10 then begin
      last := pct;
      Printf.printf "  %d%% (%d/%d)\n%!" pct done_ total
    end
  in
  let t0 = Obs.Clock.now_ns () in
  let s = Exp.Sweep.run ~horizon ~usecases:sweep_usecases ~progress ~jobs workload in
  (s, elapsed_s t0)

let () =
  section "TABLE1";
  print_string (Exp.Figures.render_table1 (Exp.Figures.table1 sweep));
  section "FIG6";
  print_string (Exp.Figures.render_fig6 (Exp.Figures.fig6 sweep));
  section "TIMING";
  print_string (Exp.Figures.render_timing sweep);
  (* Sequential re-run of the identical sweep for the parallel speedup row.
     The observations must agree bit for bit — the sweep is deterministic in
     the number of domains.  Structural [compare] rather than [<>]: a
     use-case whose simulation completes no iteration records a NaN period
     (a valid observation filtered later), and NaN <> NaN would cry wolf. *)
  let t0 = Obs.Clock.now_ns () in
  let sequential = Exp.Sweep.run ~horizon ~usecases:sweep_usecases ~jobs:1 workload in
  let sequential_wall_s = elapsed_s t0 in
  if compare sequential.observations sweep.observations <> 0 then
    fail "sequential and parallel sweep observations differ";
  Printf.printf
    "\n  sweep wall-clock, sequential (jobs=1) : %.2f s\n\
     \  sweep wall-clock, parallel   (jobs=%d): %.2f s\n\
     \  parallel sweep speedup               : %.2fx\n"
    sequential_wall_s jobs parallel_wall_s
    (sequential_wall_s /. Float.max 1e-9 parallel_wall_s)

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
        let t0 = Obs.Clock.now_ns () in
        let err = mean_err (periods est) in
        let dt = elapsed_s t0 *. 1000. in
        [ Contention.Analysis.estimator_name est;
          Repro_stats.Table.float_cell ~decimals:2 err;
          Repro_stats.Table.float_cell ~decimals:2 dt ])
      [ Contention.Analysis.Worst_case; Contention.Analysis.Order 2;
        Contention.Analysis.Order 3; Contention.Analysis.Order 4;
        Contention.Analysis.Order 6; Contention.Analysis.Composability;
        Contention.Analysis.Exact ]
  in
  print_string
    (Repro_stats.Table.render ~header:[ "Estimator"; "Err (%)"; "Time (ms)" ] rows)

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
  print_endline "Period backend parity on the workload graphs";
  let rows =
    Array.to_list
      (Array.map
         (fun (a : Contention.Analysis.app) ->
           let ss = Sdf.Statespace.period_exn a.graph in
           let mcm = Sdf.Hsdf.period a.graph in
           let exact = Sdf.Hsdf.period_rational a.graph in
           [ a.graph.Sdf.Graph.name;
             Repro_stats.Table.float_cell ~decimals:3 ss;
             Repro_stats.Table.float_cell ~decimals:3 mcm;
             Sdf.Rational.to_string exact;
             Repro_stats.Table.float_cell ~decimals:6 (Float.abs (ss -. mcm)) ])
         workload.apps)
  in
  print_string
    (Repro_stats.Table.render
       ~header:[ "App"; "Statespace"; "HSDF/MCM"; "Exact rational"; "Abs diff" ]
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
  let t0 = Obs.Clock.now_ns () in
  let outcome = Contention.Explore.improve ~max_moves:16 ~procs:10 packed in
  Printf.printf
    "steepest descent on 4 apps / 10 procs: score %.3f -> %.3f, %d moves,\n\
     %d estimator evaluations in %.2f s\n"
    outcome.initial_score outcome.final_score outcome.moves outcome.evaluations
    (elapsed_s t0)

(* ------------------------------------------------------------------ *)
(* Shadow-audit overhead on the serve request path                      *)

let () =
  section "AUDIT";
  let reqs = 2_000 in
  print_endline
    "Estimate throughput as the shadow audit samples none, 1 in 64 and\n\
     1 in 8 of served estimates.  Replays run on a background domain, so\n\
     the request path only pays the head-sampling check plus a bounded\n\
     queue submission — the three rates should be close; the gap is the\n\
     audit's request-path overhead (see EXPERIMENTS.md, AUDIT section)";
  let small = Exp.Workload.make ~seed ~num_apps:3 ~procs:2 () in
  let measure audit_sample =
    let config =
      {
        Serve.Server.default_config with
        port = Some 0;
        unix_path = None;
        jobs = Some 2;
        audit_sample;
      }
    in
    let server = Serve.Server.start ~config () in
    let port = Option.get (Serve.Server.tcp_port server) in
    let client =
      match Serve.Client.connect ~port () with
      | Ok c -> c
      | Error msg -> fail "audit: %s" msg
    in
    let digest =
      match Serve.Client.upload client ~payload:(Exp.Workload.to_string small) with
      | Ok (up : Serve.Protocol.upload_reply) -> up.digest
      | Error msg -> fail "audit: %s" msg
    in
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to reqs do
      match
        Serve.Client.estimate client ~digest
          ~estimator:(Contention.Analysis.Order 2) ()
      with
      | Ok _ -> ()
      | Error msg -> fail "audit: %s" msg
    done;
    let dt = elapsed_s t0 in
    Serve.Client.close client;
    (* stop drains the audit queue, so the replay backlog is bounded by the
       queue capacity, not the request count — it never dominates the run. *)
    Serve.Server.stop server;
    let rate = float_of_int reqs /. Float.max 1e-9 dt in
    Printf.printf "%-28s %8.0f req/s  (%.1f us/req over %d requests)\n"
      (if audit_sample = 0 then "estimate (audit off)"
       else Printf.sprintf "estimate (audit 1-in-%d)" audit_sample)
      rate
      (dt /. float_of_int reqs *. 1e6)
      reqs
  in
  List.iter measure [ 0; 64; 8 ]

(* ------------------------------------------------------------------ *)
(* Sharded cluster: open-loop throughput, single shard vs the ring      *)

let () =
  section "CLUSTER";
  let shards = 4 and rate = 12_000. and duration = 0.5 in
  let jobs = 2 and cache = 8 and working_set = 16 in
  Printf.printf
    "Open-loop load (%.0f req/s offered, uniform arrivals over %d digests,\n\
     %.1f s) against one shard, then the full %d-shard ring over unix\n\
     sockets — %d worker(s) and a %d-entry estimate cache per shard, client\n\
     pool sized to the workers.  The working set outgrows one node's cache\n\
     but the ring partitions it: aggregate cache capacity is what scales.\n"
    rate working_set duration shards jobs cache;
  let start_shard i =
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "contention-bench-%d-%d.sock" (Unix.getpid ()) i)
    in
    (try Sys.remove path with Sys_error _ -> ());
    let config =
      {
        Serve.Server.default_config with
        port = None;
        unix_path = Some path;
        jobs = Some jobs;
        cache_capacity = cache;
      }
    in
    (Serve.Server.start ~config (), Cluster.Endpoint.Unix_sock path)
  in
  let servers = List.init shards start_shard in
  let endpoints = List.map snd servers in
  let payloads =
    List.init working_set (fun i ->
        Exp.Workload.to_string
          (Exp.Workload.make ~seed:(seed + i) ~num_apps:3 ~procs:2 ()))
  in
  let measure label eps =
    let router = Cluster.Router.create ~pool_size:jobs ~timeout:10. eps in
    Fun.protect
      ~finally:(fun () -> Cluster.Router.close router)
      (fun () ->
        let digests =
          Array.of_list
            (List.map
               (fun payload ->
                 match Cluster.Router.upload router ~payload with
                 | Ok (up : Serve.Protocol.upload_reply) -> up.digest
                 | Error msg -> fail "cluster: %s" msg)
               payloads)
        in
        let config =
          {
            Cluster.Loadgen.rate;
            duration_s = duration;
            concurrency = jobs * List.length eps;
            arrival = Cluster.Loadgen.Uniform;
            skew = 0.;
            seed;
            estimator = Contention.Analysis.Order 2;
            trace_sample = 0;
          }
        in
        let report =
          Cluster.Loadgen.run
            ~registry:(Obs.Metric.create_registry ())
            config ~router ~digests
        in
        Printf.printf
          "%-16s %8.0f req/s  p50 %8.3f ms  p99 %8.3f ms  (%d ok, %d shed, %d errors)\n"
          label report.Cluster.Loadgen.achieved_rps report.Cluster.Loadgen.p50_ms
          report.Cluster.Loadgen.p99_ms report.Cluster.Loadgen.ok
          report.Cluster.Loadgen.shed report.Cluster.Loadgen.errors;
        report)
  in
  let single = measure "single shard" [ List.hd endpoints ] in
  let multi = measure (Printf.sprintf "%d shards" shards) endpoints in
  List.iter (fun (server, _) -> Serve.Server.stop server) servers;
  List.iter
    (fun (label, (r : Cluster.Loadgen.report)) ->
      if r.errors > 0 || r.ok = 0 then
        fail "cluster: %s reported %d errors and %d completed requests" label
          r.errors r.ok)
    [ ("single shard", single); ("the ring", multi) ]

(* ------------------------------------------------------------------ *)
(* Incremental admission at scale                                       *)

let () =
  section "ADMIT";
  let residents = 1_000 and cycles = 100 and procs = 4 in
  Printf.printf
    "Join/leave cycles at a %d-application resident population on %d\n\
     processors: the incremental controller (⊕/⊖ on the per-processor\n\
     aggregates) against a per-join from-scratch re-fold of the same\n\
     aggregates, plus the cost of serving a confidence margin per admit.\n"
    residents procs;
  (* Small resident applications, drawn as the churn fuzz tier draws them,
     with activation periods inflated so the resident population sums to
     roughly one utilization per processor — thousands of light features,
     not thousands of saturating ones. *)
  let rng = Sdfgen.Rng.create seed in
  let period_slack = Float.max 12. (0.25 *. float_of_int residents) in
  let gen name = Check.Fuzz.churn_app rng ~procs ~period_slack ~name in
  let apps = Array.init residents (fun i -> gen (Printf.sprintf "R%d" i)) in
  let extra = gen "EXTRA" in
  let ctl = Contention.Admission.create ~procs () in
  let admit app =
    match
      Contention.Admission.try_admit ctl app Contention.Admission.best_effort
    with
    | Contention.Admission.Admitted _ -> ()
    | _ -> fail "admit: %s rejected" app.Contention.Analysis.graph.Sdf.Graph.name
  in
  let t0 = Obs.Clock.now_ns () in
  Array.iter admit apps;
  let ramp_s = elapsed_s t0 in
  (* Steady-state join/leave cycles (LIFO, so ⊖ is the exact inverse). *)
  let time_cycles ~refold =
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to cycles do
      admit extra;
      if refold then
        for proc = 0 to procs - 1 do
          (* What a non-incremental manager redoes per join: fold the whole
             population's aggregates again. *)
          ignore (Contention.Admission.refolded_aggregate ctl ~proc)
        done;
      Contention.Admission.withdraw ctl extra.Contention.Analysis.graph.Sdf.Graph.name
    done;
    elapsed_s t0 /. float_of_int cycles
  in
  let incremental_s = time_cycles ~refold:false in
  let refold_s = time_cycles ~refold:true in
  let speedup = refold_s /. Float.max 1e-12 incremental_s in
  (* Margin overhead per admitted request at this population. *)
  let name0 = apps.(0).Contention.Analysis.graph.Sdf.Graph.name in
  let time_margin method_ =
    let spec =
      { Contention.Admission.default_margin_spec with method_ } in
    let reps = 50 in
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to reps do
      ignore (Contention.Admission.margin_for ctl spec name0)
    done;
    elapsed_s t0 /. float_of_int reps
  in
  let margin_z_s = time_margin Contention.Margin.Z_score in
  let margin_q_s = time_margin Contention.Margin.Quantile in
  let counters = Contention.Admission.counters ctl in
  Printf.printf
    "ramp to %d residents           : %8.2f ms (%.0f joins/s)\n\
     join+leave, incremental        : %8.1f us/cycle (%.0f joins/s)\n\
     join+leave, re-fold baseline   : %8.1f us/cycle (%.0f joins/s)\n\
     incremental speedup            : %8.1fx\n\
     margin, z-score                : %8.1f us/request\n\
     margin, quantile (%d draws)   : %8.1f us/request\n\
     full rebuilds during the run   : %8d\n"
    residents (ramp_s *. 1e3)
    (float_of_int residents /. Float.max 1e-9 ramp_s)
    (incremental_s *. 1e6)
    (1. /. Float.max 1e-12 incremental_s)
    (refold_s *. 1e6)
    (1. /. Float.max 1e-12 refold_s)
    speedup (margin_z_s *. 1e6)
    Contention.Admission.default_margin_spec.Contention.Admission.samples
    (margin_q_s *. 1e6) counters.Contention.Admission.full_rebuilds;
  if counters.Contention.Admission.full_rebuilds > 0 then
    fail "admit: %d full rebuilds" counters.Contention.Admission.full_rebuilds;
  if speedup <= 1. then
    fail "admit: incremental path not faster than the re-fold (%.2fx)" speedup

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let nine_loads =
  (* A node of the full use-case carries ~9-10 contending actors. *)
  let rng = Sdfgen.Rng.create 77 in
  List.init 9 (fun _ ->
      Contention.Prob.make
        ~p:(0.05 +. Sdfgen.Rng.float rng 0.4)
        ~mu:(1. +. Sdfgen.Rng.float rng 50.)
        ~tau:(2. +. Sdfgen.Rng.float rng 100.))

let graph_a = workload.apps.(0).Contention.Analysis.graph

let admission_cycle () =
  let ctl = Contention.Admission.create ~procs:10 () in
  Array.iter
    (fun (a : Contention.Analysis.app) ->
      ignore (Contention.Admission.try_admit ctl a Contention.Admission.best_effort))
    workload.apps;
  Array.iter
    (fun (a : Contention.Analysis.app) ->
      Contention.Admission.withdraw ctl a.graph.Sdf.Graph.name)
    workload.apps

let tests =
  Test.make_grouped ~name:"contention"
    [
      (* TABLE1 path: one full analysis of the maximum-contention use-case
         per estimator. *)
      Test.make ~name:"table1/analysis-worst-case"
        (Staged.stage (fun () ->
             ignore (Contention.Analysis.estimate Contention.Analysis.Worst_case full_apps)));
      Test.make ~name:"table1/analysis-second-order"
        (Staged.stage (fun () ->
             ignore (Contention.Analysis.estimate (Contention.Analysis.Order 2) full_apps)));
      Test.make ~name:"table1/analysis-fourth-order"
        (Staged.stage (fun () ->
             ignore (Contention.Analysis.estimate (Contention.Analysis.Order 4) full_apps)));
      Test.make ~name:"table1/analysis-composability"
        (Staged.stage (fun () ->
             ignore (Contention.Analysis.estimate Contention.Analysis.Composability full_apps)));
      (* FIG5 path: one simulated use-case at a reduced horizon (50k). *)
      Test.make ~name:"fig5/simulation-50k"
        (Staged.stage (fun () ->
             ignore
               (Desim.Engine.run ~horizon:50_000. ~procs:workload.procs
                  (Exp.Workload.sim_apps workload full_usecase))));
      (* Waiting-time kernels with 9 contenders (FIG6 inner loop). *)
      Test.make ~name:"kernel/worst-case"
        (Staged.stage (fun () -> ignore (Contention.Wcrt.waiting_time nine_loads)));
      Test.make ~name:"kernel/second-order"
        (Staged.stage (fun () -> ignore (Contention.Approx.second_order nine_loads)));
      Test.make ~name:"kernel/fourth-order"
        (Staged.stage (fun () -> ignore (Contention.Approx.fourth_order nine_loads)));
      Test.make ~name:"kernel/composability"
        (Staged.stage (fun () -> ignore (Contention.Compose.waiting_time nine_loads)));
      Test.make ~name:"kernel/exact"
        (Staged.stage (fun () -> ignore (Contention.Exact.waiting_time nine_loads)));
      (* Period backends. *)
      Test.make ~name:"period/statespace"
        (Staged.stage (fun () -> ignore (Sdf.Statespace.period_exn graph_a)));
      Test.make ~name:"period/hsdf-mcm"
        (Staged.stage (fun () -> ignore (Sdf.Hsdf.period graph_a)));
      Test.make ~name:"period/rational"
        (Staged.stage (fun () -> ignore (Sdf.Hsdf.period_rational graph_a)));
      Test.make ~name:"period/maxplus"
        (Staged.stage (fun () -> ignore (Maxplus.period graph_a)));
      (* Admission control: admit and withdraw the whole workload. *)
      Test.make ~name:"admission/cycle-10-apps" (Staged.stage admission_cycle);
      (* Secondary SDF metrics and the exploration scoring function. *)
      Test.make ~name:"metrics/analyse"
        (Staged.stage (fun () -> ignore (Sdf.Metrics.analyse graph_a)));
      Test.make ~name:"explore/score-4-apps"
        (Staged.stage
           (let assignment =
              Contention.Explore.initial ~procs:10
                (Array.to_list
                   (Array.map
                      (fun (a : Contention.Analysis.app) -> a.graph)
                      (Array.sub workload.apps 0 4)))
            in
            fun () -> ignore (Contention.Explore.score ~procs:10 assignment)));
    ]

let () =
  section "MICRO";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let analysis = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some (value :: _) -> value
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      analysis []
  in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let cells =
    List.map
      (fun (name, ns) ->
        let cell =
          if Float.is_nan ns then "-"
          else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
          else Printf.sprintf "%.1f ns" ns
        in
        [ name; cell ])
      rows
  in
  print_string (Repro_stats.Table.render ~header:[ "Benchmark"; "Time/run" ] cells)

let () =
  (match trace_file with
  | None -> ()
  | Some path ->
      Obs.Span.set_enabled false;
      Obs.Trace.write_file ~path (Obs.Span.drain ());
      Printf.printf "\nwrote trace to %s\n" path);
  print_endline "\nbench: done"
