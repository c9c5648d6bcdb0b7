open Desim

let dedicated graph =
  { Engine.graph; mapping = Contention.Mapping.dedicated graph }

let test_isolated_matches_statespace () =
  let g = Fixtures.graph_a () in
  let results, _ = Engine.run ~procs:3 [| dedicated g |] in
  Fixtures.check_float ~eps:1e-6 "avg period" 300. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:1e-6 "max period" 300. results.(0).Engine.max_period;
  Fixtures.check_float ~eps:1e-6 "min period" 300. results.(0).Engine.min_period

(* Section 3: A and B share Proc_i for actor i. *)
let paper_pair () =
  [|
    { Engine.graph = Fixtures.graph_a (); mapping = [| 0; 1; 2 |] };
    { Engine.graph = Fixtures.graph_b (); mapping = [| 0; 1; 2 |] };
  |]

let test_paper_shared_period () =
  (* In practice the period stays 300 (the probabilistic estimate of 359
     is conservative). *)
  let results, _ = Engine.run ~procs:3 (paper_pair ()) in
  Fixtures.check_float ~eps:1e-6 "Per(A) shared" 300. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:1e-6 "Per(B) shared" 300. results.(1).Engine.avg_period

let test_full_contention_on_one_proc () =
  (* Two independent single-actor apps on one processor: each actor wants to
     run 7 of every 7 time units; sharing doubles both periods. *)
  let app name =
    { Engine.graph =
        Sdf.Graph.create ~name ~actors:[| (name, 7.) |] ~channels:[| (0, 0, 1, 1, 1) |];
      mapping = [| 0 |] }
  in
  let results, stats = Engine.run ~horizon:70_000. ~procs:1 [| app "x"; app "y" |] in
  Fixtures.check_float ~eps:1e-3 "x period doubles" 14. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:1e-3 "y period doubles" 14. results.(1).Engine.avg_period;
  (* The processor is saturated. *)
  let util = Engine.utilisation stats in
  Alcotest.(check bool) "utilisation ~1" true (util.(0) > 0.99 && util.(0) <= 1.0001)

let test_horizon_and_stats () =
  let g = Fixtures.graph_a () in
  let results, stats = Engine.run ~horizon:3000. ~warmup_iterations:0 ~procs:3 [| dedicated g |] in
  Alcotest.(check int) "iterations by horizon" 10 results.(0).Engine.iterations;
  Alcotest.(check bool) "final time within horizon" true (stats.Engine.final_time <= 3000.);
  (* One iteration = 4 firings (q = [1;2;1]). *)
  Alcotest.(check bool) "firings consistent" true (stats.Engine.total_firings >= 40)

let test_busy_time_accounting () =
  let g = Fixtures.graph_a () in
  let results, stats = Engine.run ~horizon:30_000. ~procs:3 [| dedicated g |] in
  (* Busy time per proc equals firings x tau; proc 1 runs a1 twice per
     iteration at tau 50, procs 0 and 2 run 100 per iteration. *)
  let busy = results.(0).Engine.busy_time in
  Alcotest.(check int) "busy array length" 3 (Array.length busy);
  Array.iteri
    (fun p b -> Fixtures.check_float ~eps:1e-9 "app busy = proc busy" stats.Engine.proc_busy.(p) b)
    busy;
  (* Every iteration contributes 100 to proc 0 and 2x50 to proc 1. *)
  Alcotest.(check bool) "proc0 ~ proc1 busy" true
    (Fixtures.float_eq ~eps:0.05 busy.(0) busy.(1))

let test_warmup_excluded () =
  let g = Fixtures.graph_a () in
  let results, _ = Engine.run ~horizon:10_000. ~warmup_iterations:5 ~procs:3 [| dedicated g |] in
  (* 33 iterations fit in 10000; 5 are warm-up, stats cover the rest. *)
  Alcotest.(check bool) "iterations counted" true (results.(0).Engine.iterations >= 30);
  Fixtures.check_float ~eps:1e-6 "avg stable" 300. results.(0).Engine.avg_period

let test_too_short_horizon_gives_nan () =
  let g = Fixtures.graph_a () in
  let results, _ = Engine.run ~horizon:100. ~procs:3 [| dedicated g |] in
  Alcotest.(check bool) "nan avg" true (Float.is_nan results.(0).Engine.avg_period)

let test_validation () =
  let g = Fixtures.graph_a () in
  (match Engine.run ~procs:3 [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty app set accepted");
  (match Engine.run ~procs:2 [| dedicated g |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mapping outside procs accepted");
  match Engine.run ~procs:3 [| { Engine.graph = g; mapping = [| 0 |] } |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short mapping accepted"

let test_events_emitted () =
  let g = Fixtures.pipeline () in
  let starts = ref 0 and finishes = ref 0 in
  let on_event = function
    | Engine.Start _ -> incr starts
    | Engine.Finish _ -> incr finishes
  in
  let _ = Engine.run ~horizon:80. ~on_event ~procs:2 [| dedicated g |] in
  Alcotest.(check bool) "starts happened" true (!starts > 0);
  (* All but possibly the in-flight firing finish. *)
  Alcotest.(check bool) "finishes close to starts" true (!starts - !finishes <= 2)

(* Contention can only hurt: the simulated shared period of an app is at
   least (up to measurement noise) its isolation period. *)
let prop_contention_monotone =
  Fixtures.qcheck_case ~count:40 "shared period >= isolation"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let iso = Sdf.Statespace.period_exn g1 in
      let procs = 2 in
      let apps =
        [|
          { Engine.graph = g1; mapping = Contention.Mapping.modulo ~procs g1 };
          { Engine.graph = Sdf.Graph.create ~name:"H"
              ~actors:(Array.map (fun (a : Sdf.Graph.actor) -> (a.name ^ "h", a.exec_time)) g2.actors)
              ~channels:(Array.map (fun (c : Sdf.Graph.channel) ->
                (c.src, c.dst, c.produce, c.consume, c.tokens)) g2.channels);
            mapping = Contention.Mapping.modulo ~procs g2 };
        |]
      in
      let results, _ = Engine.run ~horizon:100_000. ~procs apps in
      let shared = results.(0).Engine.avg_period in
      Float.is_nan shared || shared +. 1e-6 >= iso -. 1e-6)

(* Bit-for-bit equality of two runs, every field but the extrapolated
   count. *)
let same_run (r1, s1) (r2, s2) =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let same_array a b = Array.length a = Array.length b && Array.for_all2 same a b in
  Array.length r1 = Array.length r2
  && Array.for_all2
       (fun (a : Engine.result) (b : Engine.result) ->
         a.app_name = b.app_name && a.iterations = b.iterations
         && same a.avg_period b.avg_period && same a.max_period b.max_period
         && same a.min_period b.min_period && same_array a.busy_time b.busy_time)
       r1 r2
  && same s1.Engine.final_time s2.Engine.final_time
  && s1.total_firings = s2.total_firings
  && same_array s1.proc_busy s2.proc_busy

(* A random workload: 1-4 applications drawn from the default generator
   parameters, a fuzz draw or small graphs with tiny execution times,
   mapped at random on 1-4 processors, with a random horizon, warm-up and
   arbitration.  Static orders are random permutations of each processor's
   actors, so some of them stall. *)
let random_run seed =
  let rng = Sdfgen.Rng.create seed in
  let procs = Sdfgen.Rng.int_in rng 1 4 in
  let params =
    match Sdfgen.Rng.int rng 3 with
    | 0 -> Sdfgen.Generator.default_params
    | 1 -> Sdfgen.Generator.fuzz_params rng
    | _ ->
        (* Small graphs with execution times of 1-3: many completions at
           equal times and long queues, where tie-breaks decide. *)
        { Sdfgen.Generator.default_params with actors_min = 2; actors_max = 5; exec_min = 1; exec_max = 3 }
  in
  let apps =
    Array.init (Sdfgen.Rng.int_in rng 1 4) (fun i ->
        let graph = Sdfgen.Generator.generate ~params rng ~name:(Printf.sprintf "G%d" i) in
        { Engine.graph;
          mapping = Array.init (Sdf.Graph.num_actors graph) (fun _ -> Sdfgen.Rng.int rng procs) })
  in
  let horizon = float_of_int (Sdfgen.Rng.int_in rng 1 60_000) +. if Sdfgen.Rng.bool rng then 0.5 else 0. in
  let warmup_iterations = Sdfgen.Rng.int rng 25 in
  let arbitration =
    match Sdfgen.Rng.int rng 3 with
    | 0 -> Engine.Fcfs
    | 1 -> Engine.Fixed_priority
    | _ ->
        let actors_on proc =
          List.concat
            (List.mapi
               (fun ai (a : Engine.app) ->
                 List.filter (fun (_, actor) -> a.mapping.(actor) = proc)
                   (List.init (Array.length a.mapping) (fun actor -> (ai, actor))))
               (Array.to_list apps))
        in
        Engine.Static_order
          (Array.init procs (fun proc ->
               let order = Array.of_list (actors_on proc) in
               Sdfgen.Rng.shuffle rng order;
               order))
  in
  fun ?on_event () -> Engine.run ?on_event ~horizon ~warmup_iterations ~arbitration ~procs apps

(* Fast-forward is the only thing [on_event] turns off, so a run with a
   no-op event hook is the full simulation to compare against. *)
let prop_fast_forward_exact =
  Fixtures.qcheck_case ~count:400 "fast-forward = full simulation, bit for bit"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let run = random_run seed in
      same_run (run ()) (run ~on_event:ignore ()))

let test_fast_forward_engages () =
  let apps = paper_pair () in
  let ((_, stats) as fast) = Engine.run ~procs:3 apps in
  let ((_, full_stats) as full) = Engine.run ~on_event:ignore ~procs:3 apps in
  Alcotest.(check bool) "periods extrapolated" true (stats.Engine.extrapolated_firings > 0);
  Alcotest.(check bool) "some firings simulated" true
    (stats.extrapolated_firings < stats.total_firings);
  Alcotest.(check bool) "same as the full simulation" true (same_run fast full);
  Alcotest.(check int) "nothing extrapolated with on_event" 0
    full_stats.Engine.extrapolated_firings

let test_fast_forward_needs_integral_times () =
  let apps = paper_pair () in
  let _, hooked =
    Engine.run ~firing_time:(fun ~app ~actor -> (Sdf.Graph.actor apps.(app).graph actor).exec_time)
      ~procs:3 apps
  in
  Alcotest.(check int) "not with a firing_time hook" 0 hooked.Engine.extrapolated_firings;
  let half = Fixtures.single ~tau:7.5 () in
  let apps = Array.append apps [| { Engine.graph = half; mapping = [| 0 |] } |] in
  let _, stats = Engine.run ~procs:3 apps in
  Alcotest.(check int) "not with tau = 7.5" 0 stats.Engine.extrapolated_firings;
  Alcotest.(check bool) "simulated" true (stats.total_firings > 0)

let raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s accepted" name

let test_rejects_bad_horizon () =
  let apps = [| dedicated (Fixtures.graph_a ()) |] in
  List.iter
    (fun horizon ->
      raises_invalid (Printf.sprintf "Engine horizon %g" horizon) (fun () ->
          Engine.run ~horizon ~procs:3 apps);
      raises_invalid (Printf.sprintf "Preemptive horizon %g" horizon) (fun () ->
          Preemptive.run ~horizon ~wheel:100. ~procs:3 apps))
    [ nan; infinity; neg_infinity; -5.; 0. ]

let test_rejects_bad_firing_time () =
  let apps = [| dedicated (Fixtures.graph_a ()) |] in
  List.iter
    (fun tau ->
      raises_invalid (Printf.sprintf "firing_time %g" tau) (fun () ->
          Engine.run ~horizon:1000. ~firing_time:(fun ~app:_ ~actor:_ -> tau) ~procs:3 apps))
    [ nan; infinity; 0.; -1. ]

let suite =
  [
    Alcotest.test_case "isolated matches statespace" `Quick test_isolated_matches_statespace;
    Alcotest.test_case "paper shared period" `Quick test_paper_shared_period;
    Alcotest.test_case "saturated processor" `Quick test_full_contention_on_one_proc;
    Alcotest.test_case "horizon and stats" `Quick test_horizon_and_stats;
    Alcotest.test_case "busy time accounting" `Quick test_busy_time_accounting;
    Alcotest.test_case "warmup excluded" `Quick test_warmup_excluded;
    Alcotest.test_case "short horizon -> nan" `Quick test_too_short_horizon_gives_nan;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "events emitted" `Quick test_events_emitted;
    prop_contention_monotone;
    prop_fast_forward_exact;
    Alcotest.test_case "fast-forward engages on the paper pair" `Quick test_fast_forward_engages;
    Alcotest.test_case "fast-forward needs integral times" `Quick
      test_fast_forward_needs_integral_times;
    Alcotest.test_case "rejects bad horizons" `Quick test_rejects_bad_horizon;
    Alcotest.test_case "rejects bad firing times" `Quick test_rejects_bad_firing_time;
  ]
