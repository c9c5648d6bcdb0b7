(* The zero-allocation estimator kernel (lib/core/kernel.ml): flat evaluators
   against the list-based reference paths, the flat maximum cycle ratio, the
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
(* Flat maximum cycle ratio *)

(* The kernel graph of (src, dst, delay) edges whose node v fires actor v,
   seeded on its own scratch. *)
let graph_of ?(seeds = []) ~nnodes name edges =
  Kernel.graph (Kernel.scratch ()) ~name ~seeds ~actor:(Array.init nnodes Fun.id)
    ~src:(Array.map (fun (u, _, _) -> u) edges)
    ~dst:(Array.map (fun (_, v, _) -> v) edges)
    ~delay:(Array.map (fun (_, _, d) -> d) edges)

let raises_with what expected f =
  match f () with
  | exception Invalid_argument msg when msg = expected -> ()
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" what

let test_graph_validation () =
  (match graph_of ~nnodes:2 "g" [| (0, 1, -1) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay accepted");
  (match graph_of ~nnodes:2 "g" [| (0, 5, 1) |] with
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
  let dag = graph_of ~nnodes:2 "dag" [| (0, 1, 1) |] in
  raises_with "acyclic graph" (no_cycle "dag") (period dag [| 1.; 2. |]);
  let empty = graph_of ~nnodes:1 "empty" [||] in
  raises_with "edgeless graph" (no_cycle "empty") (period empty [| 1. |]);
  let zd = graph_of ~nnodes:2 "zd" [| (0, 1, 0); (1, 0, 0) |] in
  raises_with "zero-delay cycle" deadlock (period zd [| 1.; 2. |]);
  (* Weights are checked first, on every kind of graph. *)
  List.iter
    (fun g -> raises_with "negative weight" negative (period g [| -1.; 2. |]))
    [ dag; zd ]

let test_period_known_value () =
  (* Two-node ring, one token per edge: period = (3 + 5) / 2. *)
  let s = Kernel.scratch () in
  let g = graph_of ~nnodes:2 "ring" [| (0, 1, 1); (1, 0, 1) |] in
  let out = [| 0. |] in
  let exactly what expected =
    if not (Float.equal expected out.(0)) then
      Alcotest.failf "%s: expected %.17g, got %.17g" what expected out.(0)
  in
  Kernel.period_into s g ~exec:[| 3.; 5. |] ~exec_off:0 ~out ~out_idx:0;
  exactly "ring period" 4.;
  (* A second cycle through node 2 dominating the ratio: (3 + 9) / 1 = 12. *)
  let two_cycles = [| (0, 1, 1); (1, 0, 1); (0, 2, 0); (2, 0, 1) |] in
  let g2 = graph_of ~nnodes:3 "two-cycles" two_cycles in
  Kernel.period_into s g2 ~exec:[| 3.; 5.; 9. |] ~exec_off:0 ~out ~out_idx:0;
  exactly "critical cycle" 12.;
  (* Form miss: seeded where the ring is critical ((3 + 5) / 2 = 4 beats
     3 + 0.5), then queried where the other cycle is: the search must climb
     past the seeded form to the new critical cycle. *)
  let seeded = graph_of ~seeds:[ [| 3.; 5.; 0.5 |] ] ~nnodes:3 "two-cycles" two_cycles in
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
  ( Kernel.graph (Kernel.scratch ()) ~name:g.name ~seeds ~actor:h.actor ~src:h.src
      ~dst:h.dst ~delay:h.delay,
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
      let g = graph_of ~nnodes:2 "ring" [| (0, 1, 1); (1, 0, 1) |] in
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

(* The topological deadlock check against {!Sdf.Mcm.zero_delay_cycle}'s
   DFS, on 200 generated expansions and on copies of them with one more
   zero-delay edge between two random nodes, which closes a zero-delay
   cycle exactly when its target already reaches its source through them. *)
let test_deadlock_check_agrees () =
  let mcm_verdict ~nnodes src dst delay =
    Sdf.Mcm.zero_delay_cycle ~nodes:nnodes
      (Array.mapi (fun e u -> (u, dst.(e), (), delay.(e))) src)
  in
  let verdicts = Array.make 2 0 in
  for seed = 0 to 199 do
    let g = Sdfgen.Generator.generate (Sdfgen.Rng.create seed) ~name:"G" in
    let h = Sdf.Hsdf.expand g in
    let n = Sdf.Hsdf.num_nodes h in
    let rng = Sdfgen.Rng.create (seed + 1000) in
    let u = Sdfgen.Rng.int rng n and v = Sdfgen.Rng.int rng n in
    List.iter
      (fun (src, dst, delay) ->
        let kernel =
          Kernel.deadlocks
            (Kernel.graph (Kernel.scratch ()) ~name:"G" ~seeds:[] ~actor:h.actor ~src
               ~dst ~delay)
        in
        let dfs = mcm_verdict ~nnodes:n src dst delay in
        if kernel <> dfs then
          Alcotest.failf "seed %d: kernel says %b, DFS says %b" seed kernel dfs;
        if kernel then verdicts.(1) <- verdicts.(1) + 1
        else verdicts.(0) <- verdicts.(0) + 1)
      [
        (h.src, h.dst, h.delay);
        ( Array.append h.src [| u |],
          Array.append h.dst [| v |],
          Array.append h.delay [| 0 |] );
      ]
  done;
  (* Both verdicts occur, so neither side can pass by a constant. *)
  if verdicts.(0) < 200 || verdicts.(1) = 0 then
    Alcotest.failf "verdicts: %d live, %d deadlocked" verdicts.(0) verdicts.(1);
  (* A cycle of one node, which leaves just that node unordered. *)
  List.iter
    (fun (delay, expected) ->
      let g = graph_of ~nnodes:2 "loop" [| (0, 1, 1); (1, 1, delay) |] in
      Alcotest.(check bool) (Printf.sprintf "self-loop, delay %d" delay) expected
        (Kernel.deadlocks g))
    [ (0, true); (1, false) ]

(* The period engine's counted work (relaxations: edges × probe rounds),
   pinned where wall-clock would be noise.  The two-actor 10,000:1 ring's
   expansion is a 10,001-node chain with 30,001 edges, on which a probe
   that runs every round or cannot carry a distance along the chain in one
   round costs thousands of E. *)
let test_ring_work () =
  let n = 10_000 in
  let g =
    Sdf.Graph.create ~name:"ring"
      ~actors:[| ("a", 3.); ("b", 1.) |]
      ~channels:[| (0, 1, n, 1, 0); (1, 0, 1, n, n) |]
  in
  let h = Sdf.Hsdf.expand g in
  let edges = Sdf.Hsdf.num_edges h and nodes = Sdf.Hsdf.num_nodes h in
  let r0, w0 = Analysis.kernel_work () in
  let a = Analysis.app g ~mapping:[| 0; 0 |] in
  let r1, w1 = Analysis.kernel_work () in
  Alcotest.(check (float 0.)) "period" 10_003. a.isolation_period;
  if r1 - r0 > 10 * edges then
    Alcotest.failf "%d relaxations, above 10 x %d edges" (r1 - r0) edges;
  if w1 - w0 > 10 * nodes then
    Alcotest.failf "%d walk steps, above 10 x %d nodes" (w1 - w0) nodes;
  (* The seeding certifies the isolation period; a confirming probe on top
     of it would make 6 x E. *)
  if r1 - r0 > 4 * edges then
    Alcotest.failf "%d relaxations, above 4 x %d edges" (r1 - r0) edges

let test_paper_prepare_work () =
  (* Making the paper workload's ten apps (seed 2007) seeds their forms, and
     their prepares then adopt them: 10,284 relaxations in all.  A
     confirming probe per app and a seeding per prepare would make it
     23,689, and seeding with probes that run all V + 1 rounds over
     unsorted edges takes 44,029 for the prepares alone, so the bound
     tells them apart. *)
  let r0, _ = Analysis.kernel_work () in
  let w = Exp.Workload.make ~seed:2007 ~num_apps:10 ~procs:10 () in
  Array.iter (fun a -> ignore (Analysis.prepare a)) w.apps;
  let r1, _ = Analysis.kernel_work () in
  if r1 - r0 > 15_000 then
    Alcotest.failf "making the paper apps took %d relaxations" (r1 - r0)

(* An app seeds its forms when it is made, with a given period or
   without, and every prepare adopts them and runs no probe. *)
let test_prepare_adopts_forms () =
  let g = Fixtures.graph_a () in
  let quiet what f =
    let before = Analysis.kernel_work () in
    ignore (f ());
    let r, w = Analysis.kernel_work () in
    let r0, w0 = before in
    if r <> r0 || w <> w0 then
      Alcotest.failf "%s: %d relaxations and %d walk steps" what (r - r0) (w - w0)
  in
  List.iter
    (fun (what, a) ->
      quiet ("first prepare of " ^ what) (fun () -> Analysis.prepare a);
      quiet ("second prepare of " ^ what) (fun () -> Analysis.prepare a))
    [
      ("an app", Analysis.app g ~mapping:[| 0; 0; 0 |]);
      ("a ?period app", Analysis.app ~period:400. g ~mapping:[| 0; 0; 0 |]);
    ]

(* An app made with a given period has seeded when [app] returns: it does
   the same engine work as an app that computes its isolation period. *)
let test_period_app_seeds () =
  let g = Fixtures.graph_a () in
  let work f =
    let r0, w0 = Analysis.kernel_work () in
    ignore (f () : Analysis.app);
    let r1, w1 = Analysis.kernel_work () in
    (r1 - r0, w1 - w0)
  in
  let given = work (fun () -> Analysis.app ~period:400. g ~mapping:[| 0; 0; 0 |]) in
  let own = work (fun () -> Analysis.app g ~mapping:[| 0; 0; 0 |]) in
  if fst given = 0 then Alcotest.fail "app ~period seeded nothing";
  Alcotest.(check (pair int int)) "seeding work, with a period and without" own given

let outcome f =
  match f () with
  | period -> Ok (Int64.bits_of_float period)
  | exception Invalid_argument msg -> Error msg

(* Adopted forms answer as the seeded ones: the same periods bit for bit
   at any response times, and the same refusals. *)
let test_adopted_forms_agree () =
  let s = Kernel.scratch () in
  let out = [| 0. |] in
  for seed = 0 to 199 do
    let rng = Sdfgen.Rng.create (seed + 5000) in
    let g = Sdfgen.Generator.generate (Sdfgen.Rng.split rng) ~name:"G" in
    let n = Sdf.Graph.num_actors g in
    let mapping = Array.make n 0 in
    (* The expansion seeded at the graph's own times, as [Analysis.app]
       seeds it, against the caches of apps made with a given period and
       without one, which adopt the forms their app seeded. *)
    let seeded, _ = kernel_graph ~seeds:[ Sdf.Graph.exec_times g ] g in
    let with_period = Analysis.prepare (Analysis.app ~period:1. g ~mapping) in
    let from_app = Analysis.prepare (Analysis.app g ~mapping) in
    for draw = 1 to 5 do
      let response_times =
        Array.map
          (fun t -> t *. (1. +. Sdfgen.Rng.float rng 3.))
          (Sdf.Graph.exec_times g)
      in
      let expected =
        outcome (fun () ->
            Kernel.period_into s seeded ~exec:response_times ~exec_off:0 ~out ~out_idx:0;
            out.(0))
      in
      List.iter
        (fun (what, c) ->
          if outcome (fun () -> Analysis.period_with c ~response_times) <> expected
          then Alcotest.failf "seed %d, draw %d: %s period differs" seed draw what)
        [ ("?period app's", with_period); ("app's", from_app) ]
    done
  done;
  (* A deadlocking graph is refused when made, alike with a given period
     and without. *)
  let refusal period =
    match Analysis.app ?period (Fixtures.deadlocked ()) ~mapping:[| 0; 0 |] with
    | exception Invalid_argument msg -> Some msg
    | _ -> None
  in
  (match (refusal None, refusal (Some 5.)) with
  | Some without, Some given when given = without -> ()
  | _, None -> Alcotest.fail "a deadlocking graph made with a period is accepted"
  | _ -> Alcotest.fail "a deadlocking graph is refused otherwise with a period");
  (* Adopted forms keep the refusals of an acyclic, an edgeless and a
     zero-delay graph, at the kernel's level. *)
  List.iter
    (fun (name, nnodes, edges) ->
      let actor = Array.init nnodes Fun.id in
      let src = Array.map (fun (u, _, _) -> u) edges
      and dst = Array.map (fun (_, v, _) -> v) edges
      and delay = Array.map (fun (_, _, d) -> d) edges in
      let g = Kernel.graph s ~name ~seeds:[] ~actor ~src ~dst ~delay in
      let adopted = Kernel.with_forms (Kernel.forms g) ~name ~actor ~src ~dst ~delay in
      let period g () =
        Kernel.period_into s g ~exec:(Array.make nnodes 1.) ~exec_off:0 ~out ~out_idx:0;
        out.(0)
      in
      match (outcome (period g), outcome (period adopted)) with
      | (Error _ as a), b when a = b -> ()
      | _ -> Alcotest.failf "%s: the adopted graph answers otherwise" name)
    [
      ("dag", 2, [| (0, 1, 1) |]);
      ("empty", 1, [||]);
      ("zd", 2, [| (0, 1, 0); (1, 0, 0) |]);
    ]

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
  (* The allocation budget: after warm-up, a pass of estimate_periods_into
     over every use-case allocates exactly zero minor-heap words, for every
     estimator, on the small workload and on the 5-app, 10-processor one of
     seed 2007.  The words of an empty window (what reading the counter
     costs, if anything) are subtracted. *)
  List.iter
    (fun (w : Exp.Workload.t) ->
      let prepared = Analysis.prepare_workload w.apps in
      let ws = Analysis.workspace () in
      let ucs = Array.of_list (Usecase.all ~napps:(Array.length w.apps)) in
      let out = Array.make (Array.length w.apps) 0. in
      List.iter
        (fun est ->
          let pass () =
            for u = 0 to Array.length ucs - 1 do
              ignore
                (Analysis.estimate_periods_into ws est prepared ~usecase:ucs.(u)
                   ~out)
            done
          in
          (* warm-up: buffers reach their high-water mark *)
          pass ();
          let w0 = Gc.minor_words () in
          let w1 = Gc.minor_words () in
          pass ();
          let w2 = Gc.minor_words () in
          let words = w2 -. w1 -. (w1 -. w0) in
          if words <> 0. then
            Alcotest.failf "warm path allocates: %g minor words over a %s pass"
              words (Analysis.estimator_name est))
        [
          Analysis.Worst_case;
          Analysis.Order 2;
          Analysis.Order 4;
          Analysis.Composability;
          Analysis.Exact;
        ])
    [ small_workload (); Exp.Workload.make ~seed:2007 ~num_apps:5 ~procs:10 () ]

let suite =
  [
    prop_evaluators_bit_match;
    Alcotest.test_case "graph validation" `Quick test_graph_validation;
    Alcotest.test_case "period known values" `Quick test_period_known_value;
    Alcotest.test_case "period terminates at scale" `Quick
      test_period_terminates_at_scale;
    Alcotest.test_case "period rejects non-finite weights" `Quick
      test_period_rejects_non_finite;
    prop_integer_times_exact;
    prop_scaled_times_close;
    Alcotest.test_case "deadlock check = Mcm's DFS" `Quick test_deadlock_check_agrees;
    Alcotest.test_case "work: 10,000:1 ring within 10E" `Quick test_ring_work;
    Alcotest.test_case "work: paper prepares <= 15,000" `Quick test_paper_prepare_work;
    Alcotest.test_case "work: prepare adopts the app's forms" `Quick
      test_prepare_adopts_forms;
    Alcotest.test_case "work: app ?period seeds when made" `Quick test_period_app_seeds;
    Alcotest.test_case "adopted forms = seeded forms" `Quick test_adopted_forms_agree;
    Alcotest.test_case "engine bit-identity" `Quick test_engine_bit_identity;
    Alcotest.test_case "worst-case periods = exact rational MCR" `Quick
      test_worst_case_periods_exact;
    Alcotest.test_case "periods-into agreement" `Quick test_periods_into_matches;
    Alcotest.test_case "warm path allocation budget" `Quick test_warm_path_allocates_nothing;
  ]
