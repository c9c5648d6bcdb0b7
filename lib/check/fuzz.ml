type failure = {
  seed : int;
  property : string;
  detail : string;
  spec : Case.spec;
  shrunk : Case.spec;
  shrunk_actors : int;
}

type accuracy = {
  estimator : string;
  samples : int;
  mean_err : float;
  max_err : float;
}

type result = {
  seeds : int;
  ran : int;
  skipped : int;
  failures : failure list;
  accuracy : accuracy list;
  elapsed_s : float;
}

let passed r = r.failures = []

let materialize_property = "materialize"

let still_fails ?config ~property spec =
  match Case.materialize spec with
  | Error _ -> property = materialize_property
  | Ok t ->
      property <> materialize_property
      && List.exists
           (fun (v : Oracle.violation) -> v.property = property)
           (Oracle.check ?config t).violations

let check_seed ?config seed =
  let spec = Case.random seed in
  match Case.materialize spec with
  | Error msg ->
      {
        Oracle.violations =
          [ { property = materialize_property; detail = msg } ];
        errors = [];
      }
  | Ok t -> Oracle.check ?config t

type seed_outcome =
  | Skipped
  | Clean of (string * float) list
  | Failed of failure

let seeds_total = Obs.Metric.Counter.v "check_seeds_total"
let violations_total = Obs.Metric.Counter.v "check_violations_total"
let shrink_steps = Obs.Metric.Counter.v "check_shrink_attempts_total"

let run_seed ?config ~max_shrink_attempts seed =
  Obs.Span.with_ ~name:"check.seed"
    ~args:(fun () -> [ ("seed", string_of_int seed) ])
    (fun () ->
      Obs.Metric.Counter.inc seeds_total;
      let spec = Case.random seed in
      let outcome = check_seed ?config seed in
      match outcome.Oracle.violations with
      | [] -> Clean outcome.Oracle.errors
      | { property; detail } :: _ ->
          Obs.Metric.Counter.inc violations_total;
          let attempts = ref 0 in
          let shrunk =
            Shrink.minimize ~max_attempts:max_shrink_attempts
              ~still_fails:(fun s ->
                incr attempts;
                still_fails ?config ~property s)
              spec
          in
          Obs.Metric.Counter.inc ~by:(float_of_int !attempts) shrink_steps;
          let shrunk_actors =
            match Case.materialize shrunk with
            | Ok t -> Case.active_actors t
            | Error _ -> 0
          in
          Failed { seed; property; detail; spec; shrunk; shrunk_actors })

let merge_accuracy outcomes =
  let accs =
    List.map
      (fun (name, _) -> (name, Repro_stats.Stats.accumulator ()))
      Oracle.estimators
  in
  List.iter
    (function
      | Clean errors ->
          List.iter
            (fun (name, err) ->
              match List.assoc_opt name accs with
              | Some acc -> Repro_stats.Stats.add acc err
              | None -> ())
            errors
      | Skipped | Failed _ -> ())
    outcomes;
  List.map
    (fun (name, acc) ->
      let samples = Repro_stats.Stats.count acc in
      {
        estimator = name;
        samples;
        mean_err = (if samples = 0 then nan else Repro_stats.Stats.acc_mean acc);
        max_err = (if samples = 0 then nan else Repro_stats.Stats.acc_max acc);
      })
    accs

let run ?config ?jobs ?budget_s ?(max_shrink_attempts = 200) ?(start_seed = 0)
    ~seeds () =
  if seeds < 0 then invalid_arg "Check.Fuzz.run: negative seed count";
  let t0 = Obs.Clock.now_ns () in
  let budget_s = Option.value budget_s ~default:infinity in
  let outcomes =
    Exp.Pool.map_range ?jobs seeds (fun i ->
        if Obs.Clock.elapsed_s ~since:t0 > budget_s then Skipped
        else run_seed ?config ~max_shrink_attempts (start_seed + i))
    |> Array.to_list
  in
  let ran =
    List.length (List.filter (function Skipped -> false | _ -> true) outcomes)
  in
  let failures =
    List.filter_map (function Failed f -> Some f | _ -> None) outcomes
  in
  {
    seeds;
    ran;
    skipped = seeds - ran;
    failures;
    accuracy = merge_accuracy outcomes;
    elapsed_s = Obs.Clock.elapsed_s ~since:t0;
  }

(* ------------------------------------------------------------------ *)
(* Churn mode: random join/leave/observe sequences against one admission
   controller, cross-checked against a from-scratch re-fold.             *)

module Admission = Contention.Admission

type churn_config = {
  procs : int;
  resident : int;  (* target resident population *)
  events : int;
  check_every : int;
  w_tolerance : float;  (* re-fold oracle bound on the w-aggregate *)
  refold_bound : float;
  period_slack : float;
      (* Activation-period inflation for resident draws: a media feature
         idles between activations, so its per-actor utilization is
         tau/(slack·period), not tau/period.  Without it a population of
         thousands would be hundreds of times over capacity and the
         multiplicative ⊗ fold would overflow.  Scale roughly with
         [resident]/4 to keep per-processor utilization near one. *)
}

let default_churn_config =
  {
    procs = 4;
    resident = 48;
    events = 600;
    check_every = 25;
    (* The maintained w-aggregate may lag the re-fold by the accumulated
       non-LIFO ⊖ residue, which the controller caps at [refold_bound]. *)
    w_tolerance = 0.05;
    refold_bound = 0.05;
    period_slack = 12.;
  }

type churn_result = {
  churn_events : int;
  joins : int;
  leaves : int;
  observes : int;
  checks : int;  (* re-fold oracle comparisons performed *)
  max_p_err : float;  (* worst relative p deviation, incremental vs refold *)
  max_w_err : float;
  counters : Admission.counters;
  churn_violations : Metamorphic.violation list;
}

let churn_passed r = r.churn_violations = []

let churn_violation property fmt =
  Printf.ksprintf (fun detail -> { Metamorphic.property; detail }) fmt

(* One random resident application.  Two deliberate deviations from the
   plain generator draw:
   - the activation period is the HSDF period (the expansion [Analysis.app]
     also searches by default) inflated by
     [config.period_slack]: the soak models thousands of {e light}
     co-resident features, not thousands of features each saturating its
     processors (see {!churn_config});
   - applications with a {e saturated} actor (p = 1, the bottleneck IS the
     period) are redrawn: a saturated load has no ⊖ inverse, so admitting
     one would put every later withdrawal on the sanctioned rebuild path —
     the very path this mode exists to pin at zero. *)
let churn_app rng ~procs ~period_slack ~name =
  let params =
    {
      Sdfgen.Generator.default_params with
      actors_min = 2;
      actors_max = 4;
      exec_min = 2;
      exec_max = 20;
    }
  in
  let rec draw attempts =
    let g = Sdfgen.Generator.generate ~params (Sdfgen.Rng.split rng) ~name in
    let app =
      Contention.Analysis.app g
        ~period:(period_slack *. Sdf.Hsdf.period g)
        ~mapping:(Contention.Mapping.modulo ~procs g)
    in
    let saturated =
      Array.exists
        (fun (l : Contention.Prob.t) -> l.p >= 1.)
        (Contention.Analysis.loads app)
    in
    if saturated && attempts < 50 then draw (attempts + 1) else app
  in
  draw 0

let rel_dev a b =
  Float.abs (a -. b) /. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* The re-fold oracle: the maintained per-processor state against a fresh
   fold of the current population.  The p-component of ⊕/⊖ is an exact
   inverse, so it must agree to rounding; the w-component may lag by the
   drift-bounded ⊖ residue.  The variance log's sum must equal a roster
   walk's bit for bit. *)
let refold_oracle config ctl step (max_p, max_w, acc) =
  let acc = ref acc and max_p = ref max_p and max_w = ref max_w in
  for proc = 0 to config.procs - 1 do
    let inc = Admission.aggregate ctl ~proc in
    let ref_ = Admission.refolded_aggregate ctl ~proc in
    let dp = rel_dev inc.Contention.Compose.p ref_.Contention.Compose.p in
    let dw = rel_dev inc.Contention.Compose.w ref_.Contention.Compose.w in
    max_p := Float.max !max_p dp;
    max_w := Float.max !max_w dw;
    if dp > 1e-6 then
      acc :=
        churn_violation "churn-refold-p"
          "step %d proc %d: incremental p %.17g vs refold %.17g" step proc
          inc.Contention.Compose.p ref_.Contention.Compose.p
        :: !acc;
    if dw > config.w_tolerance then
      acc :=
        churn_violation "churn-refold-w"
          "step %d proc %d: incremental w %.17g vs refold %.17g (tol %g)"
          step proc inc.Contention.Compose.w ref_.Contention.Compose.w
          config.w_tolerance
        :: !acc;
    let var = Admission.variance ctl ~proc in
    let walked = Admission.refolded_variance ctl ~proc in
    if Int64.bits_of_float var <> Int64.bits_of_float walked then
      acc :=
        churn_violation "churn-refold-var"
          "step %d proc %d: logged variance %.17g vs roster walk %.17g" step proc
          var walked
        :: !acc;
    if Admission.aggregate_drift ctl ~proc > config.refold_bound then
      acc :=
        churn_violation "churn-drift-bound"
          "step %d proc %d: drift %.17g exceeds bound %g" step proc
          (Admission.aggregate_drift ctl ~proc)
          config.refold_bound
        :: !acc
  done;
  (!max_p, !max_w, !acc)

let churn ?(config = default_churn_config) ~seed () =
  if config.events < 0 then invalid_arg "Check.Fuzz.churn: negative events";
  let rng = Sdfgen.Rng.create seed in
  let ctl =
    Admission.create ~refold_bound:config.refold_bound ~procs:config.procs ()
  in
  let resident = ref [] in
  let next_id = ref 0 in
  let state = ref (0., 0., []) in
  let add_violation v =
    let a, b, acc = !state in
    state := (a, b, v :: acc)
  in
  let checks = ref 0 in
  (* Withdraw a uniformly chosen resident, so mostly non-LIFO ⊖. *)
  let leave () =
    let name = List.nth !resident (Sdfgen.Rng.int rng (List.length !resident)) in
    Admission.withdraw ctl name;
    resident := List.filter (fun n -> n <> name) !resident
  in
  for step = 1 to config.events do
    let population = List.length !resident in
    let die = Sdfgen.Rng.int rng (2 * config.resident) in
    if population = 0 || die >= population then begin
      (* Join: bias keeps the population oscillating around the target. *)
      incr next_id;
      let name = Printf.sprintf "J%d" !next_id in
      let app =
        churn_app rng ~procs:config.procs ~period_slack:config.period_slack
          ~name
      in
      (match Admission.try_admit ctl app Admission.best_effort with
      | Admission.Admitted _ -> resident := name :: !resident
      | Admission.Rejected_candidate _ | Admission.Rejected_victim _ ->
          add_violation
            (churn_violation "churn-join" "step %d: best-effort %s rejected"
               step name)
      | exception Invalid_argument msg ->
          add_violation
            (churn_violation "churn-join" "step %d: admit %s raised: %s" step
               name msg))
    end
    else if Sdfgen.Rng.int rng 5 = 0 then begin
      (* Observe: re-base a resident on a longer measured period (shorter
         ones could saturate a probability, which is the rebuild path this
         mode exists to avoid). *)
      let name =
        List.nth !resident (Sdfgen.Rng.int rng (List.length !resident))
      in
      let factor = 1.0 +. Sdfgen.Rng.float rng 1.0 in
      Admission.observe ctl name
        ~measured_period:(factor *. Admission.estimated_period ctl name)
    end
    else leave ();
    if step mod config.check_every = 0 then begin
      incr checks;
      state := refold_oracle config ctl step !state
    end
  done;
  incr checks;
  state := refold_oracle config ctl config.events !state;
  (* Drain to a quarter of the target, so that withdrawn pairs outnumber
     live ones and the variance log compacts at any size; check again. *)
  let drained = Int.max 0 (List.length !resident - (config.resident / 4)) in
  for _ = 1 to drained do
    leave ()
  done;
  incr checks;
  state := refold_oracle config ctl (config.events + drained) !state;
  let max_p, max_w, violations = !state in
  let counters = Admission.counters ctl in
  {
    churn_events = config.events + drained;
    joins = counters.Admission.joins;
    leaves = counters.Admission.leaves;
    observes = counters.Admission.observes;
    checks = !checks;
    max_p_err = max_p;
    max_w_err = max_w;
    counters;
    churn_violations = List.rev violations;
  }

let to_corpus f =
  { Corpus.property = f.property; detail = f.detail; spec = f.shrunk }

let replay ?config ~dir () =
  let entries, errors = Corpus.load_dir dir in
  ( List.map
      (fun (path, (e : Corpus.entry)) ->
        let outcome =
          match Case.materialize e.spec with
          | Error msg ->
              {
                Oracle.violations =
                  [ { property = materialize_property; detail = msg } ];
                errors = [];
              }
          | Ok t -> Oracle.check ?config t
        in
        (path, outcome))
      entries,
    errors )
