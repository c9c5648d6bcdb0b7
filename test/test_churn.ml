(* Churn-heavy soak tier: long seeded join/leave/observe streams against the
   incremental admission controller, cross-checked by the from-scratch
   re-fold oracle ({!Check.Fuzz.churn}), plus a processor group losing a
   near-saturated member and the admission-level metamorphic relations.

   The soak scale is environment-tunable so CI can run a reduced PR budget
   and the full population nightly:
     CHURN_APPS    resident population target   (default 2000)
     CHURN_EVENTS  churn events after ramp-up   (default 1500)
     CHURN_SEED    campaign seed                (default 1) *)

open Contention

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some v -> v
  | None -> default

(* --- the quick campaign: every PR runs this ----------------------------- *)

let check_campaign name (r : Check.Fuzz.churn_result) =
  (match r.Check.Fuzz.churn_violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%s: %s: %s" name v.Check.Metamorphic.property
        v.Check.Metamorphic.detail);
  let c = r.Check.Fuzz.counters in
  (* The tentpole invariant: joins and leaves never re-fold from scratch. *)
  Alcotest.(check int) (name ^ ": full rebuilds pinned") 0
    c.Admission.full_rebuilds;
  Alcotest.(check bool) (name ^ ": did join") true (r.Check.Fuzz.joins > 0);
  Alcotest.(check bool) (name ^ ": did leave") true (r.Check.Fuzz.leaves > 0);
  Alcotest.(check bool)
    (name ^ ": incremental ops dominate")
    true
    (c.Admission.incremental_ops
    >= r.Check.Fuzz.joins + r.Check.Fuzz.leaves);
  (* Drift-triggered refolds are sanctioned but must not storm: they stay a
     bounded fraction of the events so the refold cost amortizes away from
     the hot path (the dense quick config charges ~p·P/4 per non-LIFO ⊖
     across ~3 actors per leave, so one refold per few leaves is the
     expected ceiling there). *)
  Alcotest.(check bool)
    (name ^ ": refolds below storm threshold")
    true
    (c.Admission.drift_refolds <= r.Check.Fuzz.churn_events / 4)

let test_churn_quick () =
  let r = Check.Fuzz.churn ~seed:11 () in
  check_campaign "quick" r;
  (* The 600 events, then the drain's withdrawals down to a quarter of the
     48 residents: each event one join, leave or observe. *)
  Alcotest.(check int) "all events ran" r.Check.Fuzz.churn_events
    (r.Check.Fuzz.joins + r.Check.Fuzz.leaves + r.Check.Fuzz.observes);
  Alcotest.(check bool) "the drain follows the 600 events" true
    (r.Check.Fuzz.churn_events >= 600);
  Alcotest.(check int) "drained to a quarter" 12
    (r.Check.Fuzz.joins - r.Check.Fuzz.leaves);
  Alcotest.(check bool) "oracle ran" true (r.Check.Fuzz.checks >= 24);
  (* p-composition is exactly invertible; w lags by the bounded residue. *)
  Alcotest.(check bool) "p deviation is rounding noise" true
    (r.Check.Fuzz.max_p_err <= 1e-9);
  Alcotest.(check bool) "w deviation within refold bound" true
    (r.Check.Fuzz.max_w_err
    <= Check.Fuzz.default_churn_config.Check.Fuzz.w_tolerance)

let test_churn_deterministic () =
  let run () =
    let r = Check.Fuzz.churn ~seed:23 () in
    ( r.Check.Fuzz.joins,
      r.Check.Fuzz.leaves,
      r.Check.Fuzz.observes,
      r.Check.Fuzz.max_p_err,
      r.Check.Fuzz.max_w_err,
      List.length r.Check.Fuzz.churn_violations )
  in
  Alcotest.(check bool) "same seed, same campaign" true (run () = run ())

(* Adversarial seeds: observe-heavy re-basing on a near-full population,
   checked every 10 events.  Kept alongside the corpus replays as regression
   pins of the ⊖ drift bound. *)
let test_churn_adversarial_seeds () =
  List.iter
    (fun seed ->
      let config =
        {
          Check.Fuzz.default_churn_config with
          Check.Fuzz.resident = 16;
          events = 400;
          check_every = 10;
        }
      in
      let r = Check.Fuzz.churn ~config ~seed () in
      check_campaign (Printf.sprintf "adversarial seed %d" seed) r)
    [ 3; 17; 404; 9001 ]

(* --- the soak: 2,000+ resident applications per node -------------------- *)

let test_churn_soak () =
  let resident = env_int "CHURN_APPS" 2000 in
  let events = env_int "CHURN_EVENTS" 1500 in
  let seed = env_int "CHURN_SEED" 1 in
  (* Ramp to the resident population first (the join bias admits almost
     every event while under-populated), then churn on top of it; each
     re-fold check folds every processor over the whole population, so it
     runs on a sparse cadence plus the final state. *)
  let config =
    {
      Check.Fuzz.default_churn_config with
      Check.Fuzz.resident;
      events = (2 * resident) + events;
      check_every = resident;
      (* Thousands of light features: keep per-processor utilization near
         one regardless of the population target. *)
      period_slack = Float.max 12. (0.25 *. float_of_int resident);
    }
  in
  let r = Check.Fuzz.churn ~config ~seed () in
  check_campaign "soak" r;
  Alcotest.(check bool)
    (Printf.sprintf "population reached %d" resident)
    true
    (r.Check.Fuzz.joins >= resident);
  Alcotest.(check bool) "w deviation within refold bound" true
    (r.Check.Fuzz.max_w_err <= config.Check.Fuzz.w_tolerance)

(* --- a processor group losing a near-saturated member ------------------- *)

(* A self-looped one-actor application on processor 0 with load [p]. *)
let single_load ~name ~tau ~p =
  let g =
    Sdf.Graph.create ~name ~actors:[| (name ^ "0", tau) |]
      ~channels:[| (0, 0, 1, 1, 1) |]
  in
  Analysis.app g ~period:(tau /. p) ~mapping:[| 0 |]

let test_group_near_one_removal () =
  (* Eq. 8 divides by 1 - p: withdrawing a near-saturated member from a
     group whose co-residents are orders of magnitude lighter amplifies the
     rounding of the aggregate's P by ~1e12.  The controller must rebuild
     instead of keeping the amplified residue (the incremental rest came out
     at p = 1e-4 and a negative w), in either admission order. *)
  let heavy = single_load ~name:"H" ~tau:10. ~p:(1. -. 1e-12) in
  let light1 = single_load ~name:"L1" ~tau:4. ~p:1e-9 in
  let light2 = single_load ~name:"L2" ~tau:6. ~p:2e-9 in
  let admit t app =
    match Admission.try_admit t app Admission.best_effort with
    | Admission.Admitted _ -> ()
    | _ -> Alcotest.fail "best-effort admission refused"
  in
  let survivors = Admission.create ~procs:1 () in
  List.iter (admit survivors) [ light1; light2 ];
  let light_wait =
    (Compose.combine
       (Compose.of_load (Analysis.loads light1).(0))
       (Compose.of_load (Analysis.loads light2).(0)))
      .Compose.w
  in
  List.iter
    (fun (order, members) ->
      let t = Admission.create ~procs:1 () in
      List.iter (admit t) members;
      Fixtures.check_float ~eps:1e-12
        (order ^ ": heavy waits on the light pair")
        (10. +. light_wait)
        (Admission.estimated_period t "H");
      Admission.withdraw t "H";
      Alcotest.(check int) (order ^ ": size") 2
        (List.length (Admission.admitted t));
      let agg = Admission.aggregate t ~proc:0
      and ref_ = Admission.refolded_aggregate t ~proc:0 in
      Fixtures.check_float ~eps:1e-12 (order ^ ": p = refold") ref_.Compose.p
        agg.Compose.p;
      Fixtures.check_float ~eps:1e-12 (order ^ ": w = refold") ref_.Compose.w
        agg.Compose.w;
      Alcotest.(check int) (order ^ ": rebuilt") 1
        (Admission.counters t).Admission.full_rebuilds;
      List.iter
        (fun name ->
          Fixtures.check_float ~eps:1e-12
            (Printf.sprintf "%s: %s period = survivors alone" order name)
            (Admission.estimated_period survivors name)
            (Admission.estimated_period t name))
        [ "L1"; "L2" ])
    [ ("heavy first", [ heavy; light1; light2 ]);
      ("heavy last", [ light1; light2; heavy ]) ]

(* --- admission-level metamorphic relations ------------------------------ *)

(* Same draw as {!Check.Fuzz.churn}'s residents: HSDF-expansion isolation
   period (the random state spaces are unbounded) and no saturated actors
   (p = 1 has no ⊖ inverse, which would blur the tight round-trip
   tolerances below). *)
let gen_app rng ~procs ~name =
  let params =
    {
      Sdfgen.Generator.default_params with
      Sdfgen.Generator.actors_min = 2;
      actors_max = 4;
      exec_min = 2;
      exec_max = 20;
    }
  in
  let rec draw attempts =
    let g = Sdfgen.Generator.generate ~params (Sdfgen.Rng.split rng) ~name in
    let app =
      Analysis.app g ~period:(Sdf.Hsdf.period g) ~mapping:(Mapping.modulo ~procs g)
    in
    let saturated =
      Array.exists (fun (l : Prob.t) -> l.p >= 1.) (Analysis.loads app)
    in
    if saturated && attempts < 50 then draw (attempts + 1) else app
  in
  draw 0

let gen_apps rng ~procs n =
  List.init n (fun i -> gen_app rng ~procs ~name:(Printf.sprintf "M%d" i))

let no_violations name = function
  | [] -> ()
  | (v : Check.Metamorphic.violation) :: _ ->
      Alcotest.failf "%s: %s: %s" name v.property v.detail

let test_meta_join_leave_roundtrip () =
  let rng = Sdfgen.Rng.create 5 in
  let residents = gen_apps rng ~procs:3 6 in
  let extra = gen_app rng ~procs:3 ~name:"EXTRA" in
  no_violations "join-leave round-trip"
    (Check.Metamorphic.join_leave_roundtrip ~procs:3 residents extra)

let test_meta_churn_order_independence () =
  let rng = Sdfgen.Rng.create 6 in
  let apps = gen_apps rng ~procs:3 8 in
  no_violations "churn-order independence"
    (Check.Metamorphic.churn_order_independence rng ~procs:3 apps)

let test_meta_margin_monotonicity () =
  let rng = Sdfgen.Rng.create 7 in
  let apps = gen_apps rng ~procs:2 5 in
  no_violations "margin monotonicity"
    (Check.Metamorphic.margin_monotonicity ~procs:2 apps)

let suite =
  [
    Alcotest.test_case "quick campaign" `Quick test_churn_quick;
    Alcotest.test_case "campaign is deterministic" `Quick
      test_churn_deterministic;
    Alcotest.test_case "adversarial seeds" `Quick test_churn_adversarial_seeds;
    Alcotest.test_case "soak (CHURN_APPS residents)" `Slow test_churn_soak;
    Alcotest.test_case "group near-1 removal" `Quick
      test_group_near_one_removal;
    Alcotest.test_case "meta join-leave round-trip" `Quick
      test_meta_join_leave_roundtrip;
    Alcotest.test_case "meta churn-order independence" `Quick
      test_meta_churn_order_independence;
    Alcotest.test_case "meta margin monotonicity" `Quick
      test_meta_margin_monotonicity;
  ]
