(* Benchmark and reproduction harness.

   Running this executable regenerates every table and figure of the paper's
   evaluation (Section 5) on the substitute substrate, then times the pieces
   with Bechamel micro-benchmarks:

     FIG5    normalized periods, all 10 applications concurrent
     TABLE1  mean inaccuracy over all 1023 use-cases + complexity
     FIG6    inaccuracy vs number of concurrent applications
     TIMING  analysis vs simulation wall-clock (the "minutes vs 23 hours" claim)
     ABLATION-ORDER      accuracy/cost of Eq. 5 truncation order m
     ABLATION-ITERATION  single-pass vs fixed-point refinement
     ABLATION-ENGINE     state-space vs HSDF/MCM vs exact-rational backends
     ABLATION-STOCHASTIC Section 6 variable execution times vs replicated sim
     ABLATION-DENSITY    accuracy vs per-node utilisation (fewer processors)
     CAPACITY            buffer/throughput trade-off (references [16]/[20])
     ARBITRATION         FCFS vs fixed priority vs static order ([2])
     TDMA                the preemptive TDMA worst-case baseline ([3])
     EXPLORE             estimator-in-the-loop mapping search
     SERVE               request throughput of the in-process serve daemon
     AUDIT               serve estimate throughput with the shadow audit
                         off, at 1-in-64 and at 1-in-8 sampling
     CLUSTER             open-loop load against one shard vs the full
                         consistent-hash ring (aggregate cache scaling)
     ESTIMATOR           batched kernel pass vs the list-based reference
     ADMIT               incremental admission joins/s vs a per-join re-fold
                         at a 1,000-application resident population, plus
                         confidence-margin cost per request
     MICRO   Bechamel OLS estimates for kernels and full-path operations

   Flags:
     --quick       run only the trajectory sections (SWEEP, ESTIMATOR, SERVE,
                   AUDIT, CLUSTER, CHECK, ADMIT) — what CI's bench-smoke job
                   measures
     --json FILE   write the machine-readable trajectory (schema
                   "contention-bench/1", see EXPERIMENTS.md) to FILE

   Environment knobs:
     CONTENTION_SEED      workload seed            (default 2007)
     CONTENTION_HORIZON   simulation horizon       (default 500000)
     CONTENTION_APPS      number of applications   (default 10)
     CONTENTION_QUOTA     bechamel quota seconds   (default 0.5)
     CONTENTION_SWEEP     "full" or a divisor N to sample every Nth use-case
     CONTENTION_JOBS      domains for the use-case sweep (default: recommended
                          domain count - 1; the TIMING section also re-runs
                          the sweep sequentially to report the speedup)
     CONTENTION_TRACE     write a Chrome/Perfetto trace of the whole run to
                          this file (spans recording is off otherwise)
     CONTENTION_REV       revision label stamped into the --json output
                          (default "dev")
     CONTENTION_CLUSTER_SHARDS    ring size for the CLUSTER section (default 4)
     CONTENTION_CLUSTER_RATE      offered load in req/s        (default 6000)
     CONTENTION_CLUSTER_DURATION  open-loop duration seconds   (default 0.5)
     CONTENTION_CLUSTER_JOBS      workers per shard            (default 2)
     CONTENTION_CLUSTER_CACHE     estimate-cache entries/shard (default 8)
     CONTENTION_CLUSTER_DIGESTS   load working-set size        (default 16)
     CONTENTION_ADMIT_APPS        ADMIT resident population    (default 1000)
     CONTENTION_ADMIT_CYCLES      ADMIT join/leave cycles      (default 100) *)

open Bechamel

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let env_float name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let seed = env_int "CONTENTION_SEED" 2007
let horizon = env_float "CONTENTION_HORIZON" 500_000.
let num_apps = env_int "CONTENTION_APPS" 10
let quota = env_float "CONTENTION_QUOTA" 0.5
let trace_file = Sys.getenv_opt "CONTENTION_TRACE"
let () = if trace_file <> None then Obs.Span.set_enabled true

(* No cmdliner in the bench — two flags do not justify the dependency. *)
let quick, json_path =
  let quick = ref false and json = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %s (expected --quick, --json FILE)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (!quick, !json)

let full = not quick

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
  if full then begin
    section "FIG5";
    print_string (Exp.Figures.render_fig5 (Exp.Figures.fig5 ~horizon workload))
  end

(* ------------------------------------------------------------------ *)
(* The sweep behind Table 1 and Figure 6                               *)

let jobs = Exp.Pool.default_jobs ()

let sweep_usecases =
  let all = Contention.Usecase.all ~napps:num_apps in
  match Sys.getenv_opt "CONTENTION_SWEEP" with
  | None | Some "full" -> all
  | Some divisor ->
      (* Sample uniformly: a strided slice of the mask list would always
         contain the same low-index applications. *)
      let d = int_of_string divisor in
      let arr = Array.of_list all in
      Sdfgen.Rng.shuffle (Sdfgen.Rng.create seed) arr;
      List.filteri (fun i _ -> i mod d = 0) (Array.to_list arr)

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

let sweep_json =
  let n = List.length sweep_usecases in
  Serve.Json.Obj
    [
      ("usecases", Serve.Json.Num (float_of_int n));
      ("jobs", Serve.Json.Num (float_of_int jobs));
      ("wall_s", Serve.Json.Num parallel_wall_s);
      ( "usecases_per_s",
        Serve.Json.Num (float_of_int n /. Float.max 1e-9 parallel_wall_s) );
    ]

let () =
  if full then begin
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
    print_endline "  WARNING: sequential and parallel observations differ!";
  Printf.printf
    "\n  sweep wall-clock, sequential (jobs=1) : %.2f s\n\
     \  sweep wall-clock, parallel   (jobs=%d): %.2f s\n\
     \  parallel sweep speedup               : %.2fx\n"
    sequential_wall_s jobs parallel_wall_s
    (sequential_wall_s /. Float.max 1e-9 parallel_wall_s)
  end

(* ------------------------------------------------------------------ *)
(* The estimator kernel: batched zero-allocation pass vs reference     *)

let estimator_json =
  section "ESTIMATOR";
  print_endline
    "Batched kernel pass (Analysis.estimate_periods_into) against the\n\
     list-based reference (Check.Oracle.reference): whole-sweep passes over\n\
     every use-case of the workload, per estimator";
  let caches = Array.map Contention.Analysis.prepare workload.apps in
  let prepared = Contention.Analysis.prepare_workload ~caches workload.apps in
  let ucs = Array.of_list (Contention.Usecase.all ~napps:num_apps) in
  let n_ucs = Array.length ucs in
  (* The reference gets its loads and expansions precomputed, as the
     kernel gets its caches: both timings cover only the per-use-case pass. *)
  let inputs =
    Array.map
      (fun (a : Contention.Analysis.app) ->
        (a, Contention.Analysis.loads a, Sdf.Hsdf.expand a.graph))
      workload.apps
  in
  let triples =
    Array.map
      (fun uc -> List.map (fun i -> inputs.(i)) (Contention.Usecase.to_list uc))
      ucs
  in
  let ws = Contention.Analysis.workspace () in
  let out = Array.make num_apps 0. in
  let kernel_pass est =
    for u = 0 to n_ucs - 1 do
      ignore
        (Contention.Analysis.estimate_periods_into ws est prepared
           ~usecase:ucs.(u) ~out)
    done
  in
  let reference_pass est =
    for u = 0 to n_ucs - 1 do
      ignore (Check.Oracle.reference est triples.(u))
    done
  in
  (* Adaptive repetition: one warm pass, then enough timed whole-sweep passes
     to cover ~0.2 s, so the per-use-case figure is stable on both the 1023
     use-cases of the full workload and CI's handful. *)
  let seconds_per_usecase f =
    f ();
    let t0 = Obs.Clock.now_ns () in
    f ();
    let once = elapsed_s t0 in
    let reps = Int.max 1 (int_of_float (0.2 /. Float.max 1e-6 once)) in
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to reps do
      f ()
    done;
    elapsed_s t0 /. float_of_int (reps * n_ucs)
  in
  let rows = ref [] and per_est = ref [] and speedups = ref [] in
  List.iter
    (fun est ->
      let kernel_s = seconds_per_usecase (fun () -> kernel_pass est) in
      let reference_s = seconds_per_usecase (fun () -> reference_pass est) in
      let speedup = reference_s /. Float.max 1e-12 kernel_s in
      speedups := speedup :: !speedups;
      let name = Contention.Analysis.estimator_name est in
      rows :=
        [
          name;
          Printf.sprintf "%.1f" (kernel_s *. 1e6);
          Printf.sprintf "%.1f" (reference_s *. 1e6);
          Printf.sprintf "%.2fx" speedup;
        ]
        :: !rows;
      per_est :=
        Serve.Json.Obj
          [
            ("name", Serve.Json.Str name);
            ("kernel_ns_per_usecase", Serve.Json.Num (kernel_s *. 1e9));
            ("reference_ns_per_usecase", Serve.Json.Num (reference_s *. 1e9));
            ( "kernel_usecases_per_s",
              Serve.Json.Num (1. /. Float.max 1e-12 kernel_s) );
            ("speedup", Serve.Json.Num speedup);
          ]
        :: !per_est)
    Contention.Analysis.all_paper_estimators;
  print_string
    (Repro_stats.Table.render
       ~header:[ "Estimator"; "Kernel us/uc"; "Reference us/uc"; "Speedup" ]
       (List.rev !rows));
  (* Allocation on the warm kernel path, from the GC's own counters.  The
     only allocation inside the measured window is Gc.minor_words boxing its
     float return — a constant few words independent of the pass count. *)
  let alloc_est = Contention.Analysis.Order 2 in
  kernel_pass alloc_est;
  let alloc_passes = 10 in
  let w0 = Gc.minor_words () in
  for _ = 1 to alloc_passes do
    kernel_pass alloc_est
  done;
  let dw = Gc.minor_words () -. w0 in
  let words_per_uc = dw /. float_of_int (alloc_passes * n_ucs) in
  let mean_speedup = Repro_stats.Stats.mean !speedups in
  Printf.printf
    "\nwarm kernel allocation: %.3f minor words/use-case (%d use-cases)\n\
     mean speedup over the reference path: %.2fx\n"
    words_per_uc n_ucs mean_speedup;
  Serve.Json.Obj
    [
      ("usecases", Serve.Json.Num (float_of_int n_ucs));
      ("per_estimator", Serve.Json.Arr (List.rev !per_est));
      ("kernel_minor_words_per_usecase", Serve.Json.Num words_per_uc);
      ("mean_speedup", Serve.Json.Num mean_speedup);
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: order of the Equation 5 truncation                        *)

let full_usecase = Contention.Usecase.full ~napps:num_apps
let full_apps = Exp.Workload.analysis_apps workload full_usecase

let simulated_full =
  (* Lazy: only the full-run ablation sections force this simulation. *)
  lazy
    (let results, _ =
       Desim.Engine.run ~horizon ~procs:workload.procs
         (Exp.Workload.sim_apps workload full_usecase)
     in
     Array.map (fun r -> r.Desim.Engine.avg_period) results)

let mean_err estimated =
  let simulated = Lazy.force simulated_full in
  Repro_stats.Stats.mean
    (List.mapi
       (fun i p -> Repro_stats.Stats.abs_pct_error ~reference:simulated.(i) p)
       estimated)

let periods est = List.map (fun (r : Contention.Analysis.estimate) -> r.period) (Contention.Analysis.estimate est full_apps)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* Ablation: single pass vs fixed-point refinement                     *)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* Ablation: period computation backends                               *)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* Ablation: variable execution times (Section 6 extension)            *)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* Ablation: run-time calibration (Section 6)                          *)

let () =
  if full then begin
  section "ABLATION-CALIBRATION";
  print_endline
    "Re-estimating with measured (simulated) periods as the probability\n\
     base — the paper's Section 6 run-time suggestion — on the full use-case.\n\
     Negative result: for re-estimating the SAME mix this double-counts the\n\
     contention discount (the measured periods already include the waiting),\n\
     so the calibrated estimate undershoots; the suggestion pays off for\n\
     admission control, where a NEW application is estimated against the\n\
     currently measured system (see Contention.Admission).";
  let measured =
    let simulated = Lazy.force simulated_full in
    List.mapi (fun i a -> (a, simulated.(i))) full_apps
  in
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
  end

(* ------------------------------------------------------------------ *)
(* Ablation: contention density (processor count)                      *)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* Expected performance under a usage model                            *)

let () =
  if full then begin
  section "SCENARIO";
  print_endline
    "Expected period per application when every application is independently\n\
     active half the time (product-form usage model over the sweep)";
  print_string (Exp.Scenario.render (Exp.Scenario.uniform ~napps:num_apps 0.5) sweep)
  end

(* ------------------------------------------------------------------ *)
(* Robustness: do the conclusions survive a different random workload? *)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* Buffer/throughput trade-off (references [16]/[20] of the paper)     *)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* Arbitration policies vs the analysis assumption                     *)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* TDMA baseline (related work, reference [3])                         *)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* Mapping exploration driven by the estimator                         *)

let () =
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* The serve daemon: request throughput against an in-process server    *)

let serve_json =
  section "SERVE";
  let reqs = env_int "CONTENTION_SERVE_REQS" 2_000 in
  let config =
    {
      Serve.Server.default_config with
      port = Some 0;
      unix_path = None;
      jobs = Some 2;
    }
  in
  let server = Serve.Server.start ~config () in
  let port = Option.get (Serve.Server.tcp_port server) in
  let fail msg = failwith ("bench serve: " ^ msg) in
  let client =
    match Serve.Client.connect ~port () with
    | Ok c -> c
    | Error msg -> fail msg
  in
  let small = Exp.Workload.make ~seed ~num_apps:3 ~procs:2 () in
  let digest =
    match Serve.Client.upload client ~payload:(Exp.Workload.to_string small) with
    | Ok (up : Serve.Protocol.upload_reply) -> up.digest
    | Error msg -> fail msg
  in
  let time_reqs name f =
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to reqs do
      match f () with Ok _ -> () | Error msg -> fail msg
    done;
    let dt = elapsed_s t0 in
    let rate = float_of_int reqs /. Float.max 1e-9 dt in
    Printf.printf "%-28s %8.0f req/s  (%.1f us/req over %d requests)\n" name
      rate
      (dt /. float_of_int reqs *. 1e6)
      reqs;
    rate
  in
  let ping_rate = time_reqs "ping" (fun () -> Serve.Client.ping client) in
  let estimate_rate =
    time_reqs "estimate (cached)" (fun () ->
        Serve.Client.estimate client ~digest
          ~estimator:(Contention.Analysis.Order 2) ())
  in
  (match Serve.Client.stats client with
  | Ok (s : Serve.Protocol.stats_reply) ->
      Printf.printf
        "server counters: %d requests, cache hit rate %.1f%%, p99 latency %.0f us\n"
        s.requests_total
        (100. *. Serve.Protocol.cache_hit_rate s)
        s.latency_p99_us
  | Error msg -> fail msg);
  Serve.Client.close client;
  Serve.Server.stop server;
  Serve.Json.Obj
    [
      ("reqs", Serve.Json.Num (float_of_int reqs));
      ("ping_req_per_s", Serve.Json.Num ping_rate);
      ("estimate_req_per_s", Serve.Json.Num estimate_rate);
    ]

(* ------------------------------------------------------------------ *)
(* Shadow-audit overhead on the serve request path                      *)

let audit_json =
  section "AUDIT";
  let reqs = env_int "CONTENTION_SERVE_REQS" 2_000 in
  print_endline
    "Estimate throughput as the shadow audit samples none, 1 in 64 and\n\
     1 in 8 of served estimates.  Replays run on a background domain, so\n\
     the request path only pays the head-sampling check plus a bounded\n\
     queue submission — the three rates should be close; the gap is the\n\
     audit's request-path overhead (see EXPERIMENTS.md, AUDIT section)";
  let small = Exp.Workload.make ~seed ~num_apps:3 ~procs:2 () in
  let fail msg = failwith ("bench audit: " ^ msg) in
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
      | Error msg -> fail msg
    in
    let digest =
      match Serve.Client.upload client ~payload:(Exp.Workload.to_string small) with
      | Ok (up : Serve.Protocol.upload_reply) -> up.digest
      | Error msg -> fail msg
    in
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to reqs do
      match
        Serve.Client.estimate client ~digest
          ~estimator:(Contention.Analysis.Order 2) ()
      with
      | Ok _ -> ()
      | Error msg -> fail msg
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
      reqs;
    rate
  in
  let off = measure 0 in
  let sample_64 = measure 64 in
  let sample_8 = measure 8 in
  let side rate =
    Serve.Json.Obj [ ("estimate_req_per_s", Serve.Json.Num rate) ]
  in
  Serve.Json.Obj
    [
      ("reqs", Serve.Json.Num (float_of_int reqs));
      ("off", side off);
      ("sample_64", side sample_64);
      ("sample_8", side sample_8);
    ]

(* ------------------------------------------------------------------ *)
(* Sharded cluster: open-loop throughput, single shard vs the ring      *)

let cluster_json =
  section "CLUSTER";
  let shards = env_int "CONTENTION_CLUSTER_SHARDS" 4 in
  let rate = env_float "CONTENTION_CLUSTER_RATE" 12_000. in
  let duration = env_float "CONTENTION_CLUSTER_DURATION" 0.5 in
  let jobs = env_int "CONTENTION_CLUSTER_JOBS" 2 in
  let cache = env_int "CONTENTION_CLUSTER_CACHE" 8 in
  let working_set = env_int "CONTENTION_CLUSTER_DIGESTS" 16 in
  let fail msg = failwith ("bench cluster: " ^ msg) in
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
                 | Error msg -> fail msg)
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
  let side (r : Cluster.Loadgen.report) =
    Serve.Json.Obj
      [
        ("req_per_s", Serve.Json.Num r.achieved_rps);
        ("p50_ms", Serve.Json.Num r.p50_ms);
        ("p99_ms", Serve.Json.Num r.p99_ms);
        ("ok", Serve.Json.Num (float_of_int r.ok));
        ("shed", Serve.Json.Num (float_of_int r.shed));
        ("errors", Serve.Json.Num (float_of_int r.errors));
      ]
  in
  Serve.Json.Obj
    [
      ("shards", Serve.Json.Num (float_of_int shards));
      ("offered_rps", Serve.Json.Num rate);
      ("single", side single);
      ("multi", side multi);
    ]

(* ------------------------------------------------------------------ *)
(* Differential fuzzing throughput and accuracy                        *)

let check_json =
  section "CHECK";
  let seeds = env_int "CONTENTION_CHECK_SEEDS" 200 in
  print_endline
    "Differential oracle campaign over random small workloads: every seed\n\
     cross-checks estimators against the simulator, brute force and the\n\
     metamorphic relations (see `contention check`)";
  let r = Check.Fuzz.run ~seeds () in
  print_string (Check.Report.render r);
  let seeds_per_s = float_of_int r.ran /. Float.max 1e-9 r.elapsed_s in
  Printf.printf "throughput: %.0f seeds/s (%d seeds in %.2f s)\n" seeds_per_s
    r.ran r.elapsed_s;
  Serve.Json.Obj
    [
      ("seeds", Serve.Json.Num (float_of_int r.ran));
      ("seeds_per_s", Serve.Json.Num seeds_per_s);
    ]

(* ------------------------------------------------------------------ *)
(* Incremental admission at scale                                       *)

let admit_json =
  section "ADMIT";
  let residents = env_int "CONTENTION_ADMIT_APPS" 1_000 in
  let procs = 4 in
  Printf.printf
    "Join/leave cycles at a %d-application resident population on %d\n\
     processors: the incremental controller (⊕/⊖ on the aggregates and the\n\
     kernel groups) against a per-join from-scratch re-fold of the same\n\
     state, plus the cost of serving a confidence margin per admit.\n"
    residents procs;
  (* Small resident applications, drawn like the churn fuzz tier: HSDF
     isolation periods (random state spaces are unbounded), no saturated
     actors (no ⊖ inverse), and activation periods inflated so the resident
     population sums to roughly one utilization per processor — thousands of
     light features, not thousands of saturating ones. *)
  let rng = Sdfgen.Rng.create seed in
  let period_slack = Float.max 12. (0.25 *. float_of_int residents) in
  let params =
    {
      Sdfgen.Generator.default_params with
      actors_min = 2;
      actors_max = 4;
      exec_min = 2;
      exec_max = 20;
    }
  in
  let gen name =
    let rec draw attempts =
      let g = Sdfgen.Generator.generate ~params (Sdfgen.Rng.split rng) ~name in
      let app =
        Contention.Analysis.app g
          ~period:(period_slack *. Sdf.Hsdf.period g)
          ~mapping:(Contention.Mapping.modulo ~procs g)
      in
      if
        attempts < 50
        && Array.exists
             (fun (l : Contention.Prob.t) -> l.p >= 1.)
             (Contention.Analysis.loads app)
      then draw (attempts + 1)
      else app
    in
    draw 0
  in
  let apps = Array.init residents (fun i -> gen (Printf.sprintf "R%d" i)) in
  let extra = gen "EXTRA" in
  let ctl = Contention.Admission.create ~procs () in
  let admit app =
    match
      Contention.Admission.try_admit ctl app Contention.Admission.best_effort
    with
    | Contention.Admission.Admitted _ -> ()
    | _ -> failwith "bench admit: resident rejected"
  in
  let t0 = Obs.Clock.now_ns () in
  Array.iter admit apps;
  let ramp_s = elapsed_s t0 in
  (* Steady-state join/leave cycles (LIFO, so ⊖ is the exact inverse). *)
  let cycles = env_int "CONTENTION_ADMIT_CYCLES" 100 in
  let time_cycles ~refold =
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to cycles do
      admit extra;
      if refold then
        for proc = 0 to procs - 1 do
          (* What a non-incremental manager redoes per join: fold the whole
             population's aggregates and bases again. *)
          ignore (Contention.Admission.refolded_aggregate ctl ~proc);
          Contention.Kernel.Group.recompute
            (Contention.Admission.group ctl ~proc)
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
  Serve.Json.Obj
    [
      ("resident_apps", Serve.Json.Num (float_of_int residents));
      ("ramp_joins_per_s",
        Serve.Json.Num (float_of_int residents /. Float.max 1e-9 ramp_s));
      ( "incremental_joins_per_s",
        Serve.Json.Num (1. /. Float.max 1e-12 incremental_s) );
      ( "refold_joins_per_s",
        Serve.Json.Num (1. /. Float.max 1e-12 refold_s) );
      ("speedup", Serve.Json.Num speedup);
      ("margin_z_us", Serve.Json.Num (margin_z_s *. 1e6));
      ("margin_quantile_us", Serve.Json.Num (margin_q_s *. 1e6));
      ( "full_rebuilds",
        Serve.Json.Num (float_of_int counters.Contention.Admission.full_rebuilds) );
    ]

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
  if full then begin
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
  end

(* ------------------------------------------------------------------ *)
(* Trajectory output                                                   *)

let () =
  (match json_path with
  | None -> ()
  | Some path ->
      let rev =
        match Sys.getenv_opt "CONTENTION_REV" with Some r -> r | None -> "dev"
      in
      let doc =
        Serve.Json.Obj
          [
            ("schema", Serve.Json.Str "contention-bench/1");
            ("rev", Serve.Json.Str rev);
            ("seed", Serve.Json.Num (float_of_int seed));
            ("apps", Serve.Json.Num (float_of_int num_apps));
            ("horizon", Serve.Json.Num horizon);
            ("quick", Serve.Json.Bool quick);
            ("sweep", sweep_json);
            ("estimator", estimator_json);
            ("serve", serve_json);
            ("audit", audit_json);
            ("cluster", cluster_json);
            ("check", check_json);
            ("admit", admit_json);
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Serve.Json.to_string doc);
          output_char oc '\n');
      Printf.printf "\nwrote %s\n" path);
  (match trace_file with
  | None -> ()
  | Some path ->
      Obs.Span.set_enabled false;
      Obs.Trace.write_file ~path (Obs.Span.drain ());
      Printf.printf "\nwrote trace to %s\n" path);
  print_endline "\nbench: done"
