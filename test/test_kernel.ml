(* The zero-allocation estimator kernel (lib/core/kernel.ml): flat evaluators
   against the list-based reference paths, the incremental group basis, the
   batched engine entry points, and the warm-path allocation budget. *)

open Contention

let arrays_of loads =
  let n = List.length loads in
  let p = Array.make (Int.max 1 n) 0.
  and mu = Array.make (Int.max 1 n) 0.
  and tau = Array.make (Int.max 1 n) 0. in
  List.iteri
    (fun i (l : Prob.t) ->
      p.(i) <- l.p;
      mu.(i) <- l.mu;
      tau.(i) <- l.tau)
    loads;
  (p, mu, tau)

let others loads t = List.filteri (fun i _ -> i <> t) loads

(* The evaluators must reproduce the reference implementations bit for bit —
   not merely within a tolerance — because a served wait must equal the
   list pass's on every golden pin and serve cache key. *)
let prop_evaluators_bit_match =
  Fixtures.qcheck_case "evaluators = list paths, bitwise"
    (Fixtures.load_gen ~max_actors:8 ())
    (fun loads ->
      let n = List.length loads in
      n = 0
      ||
      let p, mu, tau = arrays_of loads in
      let s = Kernel.scratch () in
      Kernel.reserve_group s n;
      let out = Array.make n 0. in
      let ok = ref true in
      let check expected t =
        if not (Float.equal expected out.(t)) then ok := false
      in
      Kernel.wc_into ~tau ~off:0 ~n ~out;
      List.iteri (fun t _ -> check (Wcrt.waiting_time (others loads t)) t) loads;
      List.iter
        (fun order ->
          Kernel.order_into s ~order ~p ~mu ~off:0 ~n ~out;
          List.iteri
            (fun t _ -> check (Approx.waiting_time ~order (others loads t)) t)
            loads)
        [ 2; 3; 4; 6 ];
      Kernel.exact_into s ~p ~mu ~off:0 ~n ~out;
      List.iteri (fun t _ -> check (Exact.waiting_time (others loads t)) t) loads;
      Kernel.comp_into ~p ~mu ~off:0 ~n ~out;
      List.iteri (fun t _ -> check (Compose.waiting_time (others loads t)) t) loads;
      !ok)

(* ------------------------------------------------------------------ *)
(* Incremental group state *)

let fill_group loads =
  let g = Kernel.Group.create () in
  List.iteri
    (fun i (l : Prob.t) -> Kernel.Group.add g ~id:i ~p:l.p ~mu:l.mu ~tau:l.tau)
    loads;
  g

let prop_group_incremental_updates =
  (* k random single-member changes via the O(n) deconvolve/refold delta must
     leave the same basis as the O(n²) rebuild. *)
  Fixtures.qcheck_case "incremental updates = recompute"
    QCheck2.Gen.(pair (Fixtures.load_gen ~max_actors:8 ()) (int_range 0 1_000_000))
    (fun (loads, salt) ->
      let n = List.length loads in
      n = 0
      ||
      let g = fill_group loads in
      let rng = Sdfgen.Rng.create salt in
      for _ = 1 to 6 do
        Kernel.Group.update g ~id:(Sdfgen.Rng.int rng n)
          ~p:(Sdfgen.Rng.float rng 1.)
          ~mu:(1. +. Sdfgen.Rng.float rng 50.)
          ~tau:(2. +. Sdfgen.Rng.float rng 100.)
      done;
      let incremental = Array.sub (Kernel.Group.es g) 0 (n + 1) in
      Kernel.Group.recompute g;
      let rebuilt = Array.sub (Kernel.Group.es g) 0 (n + 1) in
      Array.for_all2 (fun a b -> Fixtures.float_eq ~eps:1e-9 a b) incremental rebuilt)

let prop_group_remove =
  (* ⊖ half the members: waits must match a group built from the survivors. *)
  Fixtures.qcheck_case "remove = rebuild from survivors"
    (Fixtures.load_gen ~max_actors:8 ())
    (fun loads ->
      let n = List.length loads in
      n < 2
      ||
      let g = fill_group loads in
      List.iteri
        (fun i _ -> if i mod 2 = 1 then Kernel.Group.remove g ~id:i)
        loads;
      let survivors = List.filteri (fun i _ -> i mod 2 = 0) loads in
      let fresh = Kernel.Group.create () in
      List.iteri
        (fun k (l : Prob.t) ->
          Kernel.Group.add fresh ~id:(2 * k) ~p:l.p ~mu:l.mu ~tau:l.tau)
        survivors;
      let close a b = Fixtures.float_eq ~eps:1e-9 a b in
      Kernel.Group.size g = List.length survivors
      && close
           (Kernel.Group.exact_waiting g ~excluding:None)
           (Kernel.Group.exact_waiting fresh ~excluding:None)
      && close
           (Kernel.Group.order_waiting g ~order:2 ~excluding:None)
           (Kernel.Group.order_waiting fresh ~order:2 ~excluding:None)
      && close
           (Kernel.Group.wc_waiting g ~excluding:None)
           (Kernel.Group.wc_waiting fresh ~excluding:None))

let prop_group_waiting_matches_lists =
  (* Queries from the maintained basis agree with the list kernels, both for
     an admitted member (excluding itself) and for an outside observer. *)
  Fixtures.qcheck_case "group waits = list kernels"
    (Fixtures.load_gen ~max_actors:8 ())
    (fun loads ->
      let n = List.length loads in
      n = 0
      ||
      let g = fill_group loads in
      let close a b = Fixtures.float_eq ~eps:1e-9 a b in
      let per_member =
        List.for_all
          (fun t ->
            let rest = others loads t in
            let excluding = Some t in
            close (Kernel.Group.exact_waiting g ~excluding) (Exact.waiting_time rest)
            && close
                 (Kernel.Group.order_waiting g ~order:4 ~excluding)
                 (Approx.waiting_time ~order:4 rest)
            && close (Kernel.Group.wc_waiting g ~excluding) (Wcrt.waiting_time rest))
          (List.init n Fun.id)
      in
      per_member
      && close (Kernel.Group.exact_waiting g ~excluding:None) (Exact.waiting_time loads)
      && close (Kernel.Group.wc_waiting g ~excluding:None) (Wcrt.waiting_time loads))

let test_group_errors () =
  let g = Kernel.Group.create () in
  Kernel.Group.add g ~id:1 ~p:0.5 ~mu:10. ~tau:20.;
  (match Kernel.Group.add g ~id:1 ~p:0.2 ~mu:1. ~tau:2. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate id accepted");
  (match Kernel.Group.add g ~id:2 ~p:1.5 ~mu:1. ~tau:2. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "p > 1 accepted");
  (match Kernel.Group.remove g ~id:9 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown id removed");
  (match Kernel.Group.order_waiting g ~order:1 ~excluding:None with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "order 1 accepted");
  (match Kernel.Group.exact_waiting g ~excluding:(Some 9) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown exclusion accepted");
  Alcotest.(check bool) "member" true (Kernel.Group.mem g 1);
  Kernel.Group.remove g ~id:1;
  Alcotest.(check int) "emptied" 0 (Kernel.Group.size g);
  Fixtures.check_float "empty wait" 0. (Kernel.Group.exact_waiting g ~excluding:None)

(* ------------------------------------------------------------------ *)
(* Flat maximum cycle ratio *)

let raises_with what expected f =
  match f () with
  | exception Invalid_argument msg when msg = expected -> ()
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" what

let test_graph_validation () =
  (match Kernel.graph ~nnodes:2 ~name:"g" ~seeds:[] [| (0, 1, 0, -1) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay accepted");
  (match Kernel.graph ~nnodes:2 ~name:"g" ~seeds:[] [| (0, 5, 0, 1) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "endpoint out of range accepted");
  let s = Kernel.scratch () in
  let out = [| 0. |] in
  let period g exec () = Kernel.period_into s g ~exec ~exec_off:0 ~out ~out_idx:0 in
  let no_cycle name =
    Printf.sprintf "Sdf.Hsdf.period: graph %S has no cycle (unbounded rate)" name
  in
  let deadlock = "Sdf.Mcm.max_cycle_ratio: zero-delay cycle (deadlock)" in
  let negative = "Sdf.Mcm: negative weight or delay" in
  let dag = Kernel.graph ~nnodes:2 ~name:"dag" ~seeds:[] [| (0, 1, 0, 1) |] in
  raises_with "acyclic graph" (no_cycle "dag") (period dag [| 1.; 2. |]);
  let empty = Kernel.graph ~nnodes:1 ~name:"empty" ~seeds:[] [||] in
  raises_with "edgeless graph" (no_cycle "empty") (period empty [| 1. |]);
  let zd =
    Kernel.graph ~nnodes:2 ~name:"zd" ~seeds:[] [| (0, 1, 0, 0); (1, 0, 1, 0) |]
  in
  raises_with "zero-delay cycle" deadlock (period zd [| 1.; 2. |]);
  (* Weights are checked first, on every kind of graph. *)
  List.iter
    (fun g -> raises_with "negative weight" negative (period g [| -1.; 2. |]))
    [ dag; zd ]

let test_period_known_value () =
  (* Two-node ring, one token per edge: period = (3 + 5) / 2. *)
  let s = Kernel.scratch () in
  let ring = [| (0, 1, 0, 1); (1, 0, 1, 1) |] in
  let g = Kernel.graph ~nnodes:2 ~name:"ring" ~seeds:[] ring in
  let out = [| 0. |] in
  let exactly what expected =
    if not (Float.equal expected out.(0)) then
      Alcotest.failf "%s: expected %.17g, got %.17g" what expected out.(0)
  in
  Kernel.period_into s g ~exec:[| 3.; 5. |] ~exec_off:0 ~out ~out_idx:0;
  exactly "ring period" 4.;
  (* A second cycle through node 2 dominating the ratio: (3 + 9) / 1 = 12. *)
  let two_cycles = [| (0, 1, 0, 1); (1, 0, 1, 1); (0, 2, 0, 0); (2, 0, 2, 1) |] in
  let g2 = Kernel.graph ~nnodes:3 ~name:"two-cycles" ~seeds:[] two_cycles in
  Kernel.period_into s g2 ~exec:[| 3.; 5.; 9. |] ~exec_off:0 ~out ~out_idx:0;
  exactly "critical cycle" 12.;
  (* Form miss: seeded where the ring is critical ((3 + 5) / 2 = 4 beats
     3 + 0.5), then queried where the other cycle is: the search must climb
     past the seeded form to the new critical cycle. *)
  let seeded =
    Kernel.graph ~nnodes:3 ~name:"two-cycles" ~seeds:[ [| 3.; 5.; 0.5 |] ]
      two_cycles
  in
  Kernel.period_into s seeded ~exec:[| 3.; 5.; 0.5 |] ~exec_off:0 ~out ~out_idx:0;
  exactly "seeded form" 4.;
  Kernel.period_into s seeded ~exec:[| 3.; 5.; 9. |] ~exec_off:0 ~out ~out_idx:0;
  exactly "form miss" 12.;
  Kernel.period_into s seeded ~exec:[| 0.1; 0.2; 0.25 |] ~exec_off:0 ~out
    ~out_idx:0;
  exactly "form miss, non-integer" (0.1 +. 0.25)

(* Run [f] in a forked child that SIGALRM kills after [seconds], so a
   non-terminating search fails the case instead of hanging the suite. *)
let in_child_within ~seconds what f =
  match Unix.fork () with
  | 0 ->
      ignore (Unix.alarm seconds);
      let code =
        match f () with
        | Ok () -> 0
        | Error msg ->
            prerr_endline (what ^ ": " ^ msg);
            1
        | exception e ->
            prerr_endline (what ^ ": " ^ Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED c -> Alcotest.failf "%s: child exited %d" what c
      | Unix.WSIGNALED sg when sg = Sys.sigalrm ->
          Alcotest.failf "%s: no answer within %d s" what seconds
      | Unix.WSIGNALED sg | Unix.WSTOPPED sg ->
          Alcotest.failf "%s: child stopped by signal %d" what sg)

(* The kernel graph of [g]'s HSDF expansion, flattened as
   {!Analysis.prepare} flattens it, with the expansion for the reference. *)
let kernel_graph ?(seeds = []) (g : Sdf.Graph.t) =
  let h = Sdf.Hsdf.expand g in
  ( Kernel.graph ~nnodes:(Sdf.Hsdf.num_nodes h) ~name:g.name ~seeds
      (Array.map
         (fun (e : Sdf.Hsdf.edge) ->
           (e.from_node, e.to_node, h.nodes.(e.from_node).Sdf.Hsdf.actor, e.delay))
         h.edges),
    h )

(* Within 1e-9 relative: the reference bisection's own epsilon. *)
let close_period a b = Float.abs (a -. b) <= 1e-9 *. Float.abs b

let test_period_terminates_at_scale () =
  (* At these scales an absolute 1e-12 relaxation tolerance would lie far
     below float resolution; the search must still end, on the exact ratio,
     within the reference bisection's tolerance. *)
  in_child_within ~seconds:10 "ring period at scale" (fun () ->
      let s = Kernel.scratch () in
      let out = [| 0. |] in
      List.fold_left
        (fun acc scale ->
          Result.bind acc (fun () ->
              let exec = [| 3. *. scale; 5. *. scale |] in
              let g =
                Sdf.Graph.create ~name:"ring"
                  ~actors:[| ("a", exec.(0)); ("b", exec.(1)) |]
                  ~channels:[| (0, 1, 1, 1, 1); (1, 0, 1, 1, 1) |]
              in
              let kg, h = kernel_graph g in
              Kernel.period_into s kg ~exec ~exec_off:0 ~out ~out_idx:0;
              let reference = Sdf.Hsdf.period_of_expansion h ~exec_times:exec in
              (* b's self-loop (no auto-concurrency) binds: 5 / 1 beats the
                 ring's (3 + 5) / 2. *)
              if Float.equal out.(0) (5. *. scale) && close_period out.(0) reference
              then Ok ()
              else
                Error
                  (Printf.sprintf "scale %g: kernel %.17g, reference %.17g"
                     scale out.(0) reference)))
        (Ok ()) [ 16777216.; 1e9 ])

let test_period_rejects_non_finite () =
  (* Run under the kill guard: a non-finite weight that slipped past the
     check would make the search loop on nan or infinite ratios. *)
  in_child_within ~seconds:10 "non-finite weights" (fun () ->
      let s = Kernel.scratch () in
      let g =
        Kernel.graph ~nnodes:2 ~name:"ring" ~seeds:[]
          [| (0, 1, 0, 1); (1, 0, 1, 1) |]
      in
      let out = [| 0. |] in
      List.fold_left
        (fun acc w ->
          Result.bind acc (fun () ->
              let expected = Printf.sprintf "Sdf.Mcm: non-finite edge weight %g" w in
              match
                Kernel.period_into s g ~exec:[| 3.; w |] ~exec_off:0 ~out ~out_idx:0
              with
              | exception Invalid_argument msg when msg = expected -> Ok ()
              | exception e -> Error (Printexc.to_string e)
              | () -> Error (Printf.sprintf "weight %g accepted" w)))
        (Ok ()) [ nan; infinity ])

(* The exact oracle the bisection could never pass: on integral execution
   times the period is the correctly rounded rational maximum cycle ratio.
   Random paper-sized graphs, queried away from their seeding point (the
   isolation times, scaled and perturbed) so that both form hits and misses
   occur, at scales 1 to 1e6. *)
let prop_integer_times_exact =
  let gen =
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 0 6) (int_range 0 1_000_000))
  in
  Fixtures.qcheck_case ~count:300 "integer periods = exact rational MCR" gen
    (fun (seed, exponent, salt) ->
      let g = Sdfgen.Generator.generate (Sdfgen.Rng.create seed) ~name:"G" in
      let a =
        Analysis.app ~period:1. g ~mapping:(Array.make (Sdf.Graph.num_actors g) 0)
      in
      let scale = 10. ** float_of_int exponent in
      let rng = Sdfgen.Rng.create salt in
      let times =
        Array.map
          (fun t ->
            (t *. scale)
            +. float_of_int (Sdfgen.Rng.int rng (Int.max 1 (int_of_float scale))))
          (Sdf.Graph.exec_times g)
      in
      let got = Analysis.period_with (Analysis.prepare a) ~response_times:times in
      let exact =
        Sdf.Rational.to_float
          (Sdf.Hsdf.period_rational (Sdf.Graph.with_exec_times g times))
      in
      Float.equal got exact
      || QCheck2.Test.fail_reportf "scale %g: kernel %.17g, exact %.17g" scale got
           exact)

(* Non-integral times from 1 to 1e9: every call certifies (a call that
   cannot raises) and lands within the reference bisection's tolerance. *)
let prop_scaled_times_close =
  let gen =
    QCheck2.Gen.(
      triple Fixtures.graph_gen (int_range 0 9) (array_size (return 6) (float_range 0.5 1.5)))
  in
  Fixtures.qcheck_case ~count:300 "non-integer periods at scale within 1e-9" gen
    (fun (g, exponent, noise) ->
      let scale = 10. ** float_of_int exponent in
      let times =
        Array.mapi (fun i t -> t *. scale *. noise.(i mod 6)) (Sdf.Graph.exec_times g)
      in
      let kg, h = kernel_graph ~seeds:[ Sdf.Graph.exec_times g ] g in
      let out = [| 0. |] in
      Kernel.period_into (Kernel.scratch ()) kg ~exec:times ~exec_off:0 ~out
        ~out_idx:0;
      let reference = Sdf.Hsdf.period_of_expansion h ~exec_times:times in
      close_period out.(0) reference
      || QCheck2.Test.fail_reportf "scale %g: kernel %.17g, reference %.17g" scale
           out.(0) reference)

(* ------------------------------------------------------------------ *)
(* Engine equivalence and batching *)

let small_workload () = Exp.Workload.make ~seed:11 ~num_apps:4 ~procs:3 ()

let engine_estimators =
  [
    Analysis.Worst_case;
    Analysis.Order 2;
    Analysis.Order 3;
    Analysis.Order 4;
    Analysis.Composability;
    Analysis.Exact;
  ]

(* The list-based reference on use-case [uc] of [w]: isolation loads and
   HSDF expansions supplied, as the kernel gets them from its caches. *)
let reference (w : Exp.Workload.t) est uc =
  Check.Oracle.reference est
    (List.map
       (fun i ->
         let a = w.apps.(i) in
         (a, Analysis.loads a, Sdf.Hsdf.expand a.Analysis.graph))
       (Usecase.to_list uc))

let check_waits what (a : Analysis.estimate) (b : Analysis.estimate) =
  if not (Array.for_all2 Float.equal a.waiting_times b.waiting_times) then
    Alcotest.failf "%s: waiting times differ" what;
  if not (Array.for_all2 Float.equal a.response_times b.response_times) then
    Alcotest.failf "%s: response times differ" what

let check_estimates_equal what (a : Analysis.estimate) (b : Analysis.estimate) =
  if not (Float.equal a.period b.period) then
    Alcotest.failf "%s: period %.17g <> %.17g" what a.period b.period;
  check_waits what a b

(* Against the reference: waits and response times bit for bit, periods
   within 1e-9 relative — the reference's period is a bisection midpoint,
   the kernel's the exact ratio of the critical cycle. *)
let check_against_reference what (a : Analysis.estimate) (r : Analysis.estimate) =
  if not (close_period a.period r.period) then
    Alcotest.failf "%s: period %.17g, reference %.17g" what a.period r.period;
  check_waits what a r

let test_engine_bit_identity () =
  (* The kernel pass against the list-based reference on every use-case and
     estimator: waits and response times bit-identical, periods within the
     reference's 1e-9. *)
  let w = small_workload () in
  let caches = Array.map Analysis.prepare w.apps in
  List.iter
    (fun uc ->
      let pairs =
        List.map (fun i -> (w.apps.(i), caches.(i))) (Usecase.to_list uc)
      in
      List.iter
        (fun est ->
          let name = Analysis.estimator_name est in
          List.iter2
            (check_against_reference name)
            (Analysis.estimate_prepared est pairs)
            (reference w est uc))
        engine_estimators)
    (Usecase.all ~napps:(Array.length w.apps))

let test_worst_case_periods_exact () =
  (* The worst-case waits are sums of integral execution times, so every
     contended period of the small workload is the exact rational one. *)
  let w = small_workload () in
  let caches = Array.map Analysis.prepare w.apps in
  List.iter
    (fun uc ->
      let pairs = List.map (fun i -> (w.apps.(i), caches.(i))) (Usecase.to_list uc) in
      List.iter
        (fun (e : Analysis.estimate) ->
          if not (Array.for_all Float.is_integer e.response_times) then
            Alcotest.fail "worst-case response times are not integral";
          let exact =
            Sdf.Rational.to_float (Sdf.Hsdf.period_rational (Analysis.adjusted_graph e))
          in
          if not (Float.equal e.period exact) then
            Alcotest.failf "%s: period %.17g, exact %.17g"
              e.for_app.graph.Sdf.Graph.name e.period exact)
        (Analysis.estimate_prepared Analysis.Worst_case pairs))
    (Usecase.all ~napps:(Array.length w.apps))

let test_batch_bit_identity () =
  let w = small_workload () in
  let caches = Array.map Analysis.prepare w.apps in
  let prepared = Analysis.prepare_workload ~caches w.apps in
  let ucs = Usecase.all ~napps:(Array.length w.apps) in
  List.iter
    (fun est ->
      let name = Analysis.estimator_name est in
      List.iter2
        (fun uc batched ->
          let pairs =
            List.map (fun i -> (w.apps.(i), caches.(i))) (Usecase.to_list uc)
          in
          List.iter2
            (check_estimates_equal name)
            batched
            (Analysis.estimate_prepared est pairs))
        ucs
        (Analysis.estimate_batch est prepared ucs))
    engine_estimators

let test_periods_into_matches () =
  let w = small_workload () in
  let caches = Array.map Analysis.prepare w.apps in
  let prepared = Analysis.prepare_workload ~caches w.apps in
  let ws = Analysis.workspace () in
  let out = Array.make (Array.length w.apps) 0. in
  List.iter
    (fun uc ->
      List.iter
        (fun est ->
          let active =
            Analysis.estimate_periods_into ws est prepared ~usecase:uc ~out
          in
          let reference = reference w est uc in
          Alcotest.(check int) "active count" (List.length reference) active;
          List.iteri
            (fun k (r : Analysis.estimate) ->
              if not (close_period out.(k) r.period) then
                Alcotest.failf "period %d: %.17g, reference %.17g" k out.(k)
                  r.period)
            reference)
        engine_estimators)
    (Usecase.all ~napps:(Array.length w.apps))

let test_warm_path_allocates_nothing () =
  (* The allocation budget: after warm-up, a full pass of
     estimate_periods_into over every use-case must allocate zero minor-heap
     words.  Both deltas below include the same constant cost (the boxed
     float Gc.minor_words itself returns); the second window runs twice the
     passes, so any per-call allocation would make it strictly larger. *)
  let w = small_workload () in
  let prepared = Analysis.prepare_workload w.apps in
  let ws = Analysis.workspace () in
  let ucs = Array.of_list (Usecase.all ~napps:(Array.length w.apps)) in
  let out = Array.make (Array.length w.apps) 0. in
  let est = Analysis.Order 4 in
  let pass n =
    for _ = 1 to n do
      for u = 0 to Array.length ucs - 1 do
        ignore (Analysis.estimate_periods_into ws est prepared ~usecase:ucs.(u) ~out)
      done
    done
  in
  pass 2;
  (* warm-up: buffers reach their high-water mark *)
  let w0 = Gc.minor_words () in
  pass 1;
  let w1 = Gc.minor_words () in
  pass 2;
  let w2 = Gc.minor_words () in
  let single = w1 -. w0 and double = w2 -. w1 in
  if double <> single then
    Alcotest.failf "warm path allocates: %g minor words over one pass, %g over two"
      single double

let suite =
  [
    prop_evaluators_bit_match;
    prop_group_incremental_updates;
    prop_group_remove;
    prop_group_waiting_matches_lists;
    Alcotest.test_case "group errors" `Quick test_group_errors;
    Alcotest.test_case "graph validation" `Quick test_graph_validation;
    Alcotest.test_case "period known values" `Quick test_period_known_value;
    Alcotest.test_case "period terminates at scale" `Quick
      test_period_terminates_at_scale;
    Alcotest.test_case "period rejects non-finite weights" `Quick
      test_period_rejects_non_finite;
    prop_integer_times_exact;
    prop_scaled_times_close;
    Alcotest.test_case "engine bit-identity" `Quick test_engine_bit_identity;
    Alcotest.test_case "worst-case periods = exact rational MCR" `Quick
      test_worst_case_periods_exact;
    Alcotest.test_case "batch bit-identity" `Quick test_batch_bit_identity;
    Alcotest.test_case "periods-into agreement" `Quick test_periods_into_matches;
    Alcotest.test_case "warm path allocation budget" `Quick test_warm_path_allocates_nothing;
  ]
