(* QCheck properties pinning the estimator algebra of Sections 4.1–4.2:

   - the composability operators ⊕/⊗ (Eq. 6–7) round-trip through their
     inverses (Eq. 8–9);
   - the m-th order truncation of Eq. 5 coincides with the exact Eq. 4 once
     m reaches the number of co-mapped actors;
   - on a feasible node (blocking probabilities summing to at most 1 — they
     are occupancy fractions of one processor), even-order truncations
     over-estimate and sandwich the exact value, every estimator is bounded
     by the analyzed worst case, and waiting times grow monotonically with
     any co-mapped actor's load.

   The feasibility restriction matters: Eq. 5 truncations are alternating
   series whose ordering/monotonicity guarantees need decreasing terms,
   which [sum p <= 1] provides; for infeasible loads (sum p >> 1, i.e. an
   impossible node) the second order can exceed even the worst case. *)

open QCheck2

let close ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let leq ?(eps = 1e-9) a b = a <= b +. (eps *. Float.max 1. (Float.abs b))

(* Constant-execution-time load: mu = tau / 2, as in the paper's base model. *)
let constant_load p tau = Contention.Prob.make ~p ~mu:(tau /. 2.) ~tau

(* Loads of one feasible node: probabilities scaled so they sum to [budget]. *)
let feasible_gen ?(n_min = 1) ?(budget_hi = 0.98) () =
  let open Gen in
  let* n = int_range n_min 6 in
  let* raw = list_size (return n) (float_range 0.05 1.) in
  let* taus = list_size (return n) (float_range 1. 100.) in
  let* budget = float_range 0.02 budget_hi in
  let total = List.fold_left ( +. ) 0. raw in
  return (List.map2 (fun r tau -> constant_load (r /. total *. budget) tau) raw taus)

let estimators =
  [
    Contention.Analysis.Worst_case;
    Contention.Analysis.Order 2;
    Contention.Analysis.Order 4;
    Contention.Analysis.Composability;
    Contention.Analysis.Exact;
  ]

(* --- ⊕/⊗ and their inverses (Eq. 6–9) ------------------------------- *)

let prop_combine_remove_roundtrip =
  Fixtures.qcheck_case "remove inverts combine (Eq. 8-9)"
    Gen.(pair (Fixtures.load_gen ()) (Fixtures.load_gen ~max_actors:1 ()))
    (fun (loads, extra) ->
      match extra with
      | [] -> true
      | x :: _ ->
          let rest = Contention.Compose.combine_all (List.map Contention.Compose.of_load loads) in
          let x = Contention.Compose.of_load x in
          let total = Contention.Compose.combine rest x in
          let back = Contention.Compose.remove ~total x in
          close back.Contention.Compose.p rest.Contention.Compose.p
          && close back.Contention.Compose.w rest.Contention.Compose.w)

let prop_combine_commutative =
  Fixtures.qcheck_case "combine is commutative"
    Gen.(pair (Fixtures.load_gen ~max_actors:1 ()) (Fixtures.load_gen ~max_actors:1 ()))
    (fun (xs, ys) ->
      match (xs, ys) with
      | [ x ], [ y ] ->
          let a = Contention.Compose.of_load x and b = Contention.Compose.of_load y in
          let ab = Contention.Compose.combine a b
          and ba = Contention.Compose.combine b a in
          Float.equal ab.Contention.Compose.p ba.Contention.Compose.p
          && Float.equal ab.Contention.Compose.w ba.Contention.Compose.w
      | _ -> true)

let prop_combine_p_associative =
  Fixtures.qcheck_case "oplus is associative in p"
    Gen.(
      triple
        (Fixtures.load_gen ~max_actors:1 ())
        (Fixtures.load_gen ~max_actors:1 ())
        (Fixtures.load_gen ~max_actors:1 ()))
    (fun (xs, ys, zs) ->
      match (xs, ys, zs) with
      | [ x ], [ y ], [ z ] ->
          let open Contention.Compose in
          let a = of_load x and b = of_load y and c = of_load z in
          let left = combine (combine a b) c and right = combine a (combine b c) in
          close left.p right.p
      | _ -> true)

let prop_compose_is_second_order_for_pairs =
  Fixtures.qcheck_case "composability = second order on two actors"
    Gen.(pair (Fixtures.load_gen ~max_actors:1 ()) (Fixtures.load_gen ~max_actors:1 ()))
    (fun (xs, ys) ->
      match (xs, ys) with
      | [ x ], [ y ] ->
          close
            (Contention.Compose.waiting_time [ x; y ])
            (Contention.Approx.second_order [ x; y ])
      | _ -> true)

(* --- Eq. 5 truncations vs Eq. 4 -------------------------------------- *)

let prop_order_n_is_exact =
  Fixtures.qcheck_case "Order m converges to Exact at m = n"
    (Fixtures.load_gen ())
    (fun loads ->
      let n = List.length loads in
      close
        (Contention.Approx.waiting_time ~order:(Int.max 2 n) loads)
        (Contention.Exact.waiting_time loads))

let prop_even_orders_sandwich_exact =
  Fixtures.qcheck_case "feasible node: o2 >= o4 >= exact >= 0"
    (feasible_gen ())
    (fun loads ->
      let o2 = Contention.Approx.second_order loads in
      let o4 = Contention.Approx.fourth_order loads in
      let exact = Contention.Exact.waiting_time loads in
      leq exact o4 && leq o4 o2 && leq 0. exact)

let prop_bounded_by_worst_case =
  Fixtures.qcheck_case "feasible node: every estimator <= worst case"
    (feasible_gen ())
    (fun loads ->
      let wc = Contention.Wcrt.waiting_time loads in
      List.for_all
        (fun est -> leq (Contention.Analysis.waiting_time_for est loads) wc)
        estimators)

let prop_exact_matches_brute_force =
  Fixtures.qcheck_case "deconvolved Eq. 4 = subset enumeration"
    (Fixtures.load_gen ())
    (fun loads ->
      close
        (Contention.Exact.waiting_time loads)
        (Check.Oracle.waiting_time_brute_force loads))

(* --- Monotonicity in a co-mapped actor's load ------------------------ *)

let prop_monotone_in_load =
  (* Budget <= 0.45 and growth <= 2 keep the grown node feasible, where the
     truncations are provably monotone. *)
  Fixtures.qcheck_case "waiting time non-decreasing as one load grows"
    Gen.(
      let* loads = feasible_gen ~budget_hi:0.45 () in
      let* j = int_range 0 (List.length loads - 1) in
      let* s = float_range 1. 2. in
      return (loads, j, s))
    (fun (loads, j, s) ->
      let grown =
        List.mapi
          (fun i (l : Contention.Prob.t) ->
            if i = j then constant_load (l.p *. s) (l.tau *. s) else l)
          loads
      in
      List.for_all
        (fun est ->
          leq
            (Contention.Analysis.waiting_time_for est loads)
            (Contention.Analysis.waiting_time_for est grown))
        estimators)

let suite =
  [
    prop_combine_remove_roundtrip;
    prop_combine_commutative;
    prop_combine_p_associative;
    prop_compose_is_second_order_for_pairs;
    prop_order_n_is_exact;
    prop_even_orders_sandwich_exact;
    prop_bounded_by_worst_case;
    prop_exact_matches_brute_force;
    prop_monotone_in_load;
  ]
