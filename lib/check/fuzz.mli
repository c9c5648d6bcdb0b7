(** The fuzz campaign driver: seed streams in, shrunk counterexamples out.

    Each seed deterministically yields a {!Case.spec} ({!Case.random}), which
    is materialized and run through the full {!Oracle.check}.  A violating
    seed is minimized with {!Shrink} against the predicate "the same property
    still fires" and reported as a {!failure}; clean seeds contribute their
    estimator errors to the aggregate accuracy table.  Seeds are independent,
    so the campaign fans out over an {!Exp.Pool} of domains, with results
    merged back in seed order — the outcome is a pure function of
    [(start_seed, seeds, config)], regardless of [jobs].

    A wall-clock budget turns the campaign into a best-effort sweep: tasks
    that start after the deadline are skipped (and counted), which keeps the
    pool drain prompt without killing domains mid-oracle. *)

type failure = {
  seed : int;  (** The seed that produced the violation. *)
  property : string;  (** First violated property of that seed. *)
  detail : string;  (** Its evidence. *)
  spec : Case.spec;  (** The original (unshrunk) spec. *)
  shrunk : Case.spec;  (** Locally minimal spec still violating [property]. *)
  shrunk_actors : int;  (** Active actors of the shrunk case. *)
}

type accuracy = {
  estimator : string;
  samples : int;  (** (use-case, application) pairs measured. *)
  mean_err : float;  (** Mean |estimate - simulated| / simulated, in %. *)
  max_err : float;
}

type result = {
  seeds : int;
  ran : int;
  skipped : int;  (** Seeds dropped by the budget. *)
  failures : failure list;  (** Ascending by seed. *)
  accuracy : accuracy list;  (** In {!Oracle.estimators} order. *)
  elapsed_s : float;
}

val passed : result -> bool
(** No failures {e and} nothing was skipped-because-crashed: skipped seeds
    are fine (budget), failures are not. *)

val still_fails : ?config:Oracle.config -> property:string -> Case.spec -> bool
(** The shrink predicate: the spec materializes and {!Oracle.check} reports
    at least one violation of [property].  Total. *)

val check_seed : ?config:Oracle.config -> int -> Oracle.outcome
(** One seed end to end, without shrinking — the unit the campaign runs in
    parallel.  A spec that fails to materialize is a ["materialize"]
    violation. *)

val run :
  ?config:Oracle.config ->
  ?jobs:int ->
  ?budget_s:float ->
  ?max_shrink_attempts:int ->
  ?start_seed:int ->
  seeds:int ->
  unit ->
  result
(** Run the campaign.  [jobs] defaults to {!Exp.Pool.default_jobs};
    [budget_s] to unlimited; [start_seed] to 0.  Emits [check_*] counters to
    {!Obs.Metric.default} and a span per seed when tracing is enabled. *)

(** {1 Churn mode}

    A different campaign shape for the {e incremental} admission layer:
    instead of independent seeds, one long-lived controller is driven
    through a seeded stream of join/leave/observe events, and every
    [check_every] events its maintained per-processor composability
    aggregates are compared against a from-scratch re-fold of the
    population — the oracle for the controller's claim that joins and
    leaves never refold from scratch. *)

type churn_config = {
  procs : int;
  resident : int;  (** Target resident population the join bias steers to. *)
  events : int;
  check_every : int;  (** Re-fold oracle cadence, in events. *)
  w_tolerance : float;
      (** Allowed relative deviation of the maintained w-aggregate from the
          re-fold — the accumulated non-LIFO ⊖ residue, which the controller
          caps at [refold_bound]. *)
  refold_bound : float;  (** Passed to {!Contention.Admission.create}. *)
  period_slack : float;
      (** Activation-period inflation for resident draws: a resident feature
          idles between activations, so its per-actor utilization is
          [tau/(slack·period)].  Scale roughly with [resident]/4 so the
          per-processor utilization stays near one — without it a
          thousands-strong population would be hundreds of times over
          capacity and the multiplicative ⊗ fold would overflow. *)
}

val default_churn_config : churn_config
(** 4 processors, 48 resident, 600 events, a check every 25,
    [w_tolerance = refold_bound = 0.05], [period_slack = 12]. *)

type churn_result = {
  churn_events : int;
  joins : int;
  leaves : int;
  observes : int;
  checks : int;  (** Re-fold comparisons performed (includes one final). *)
  max_p_err : float;
      (** Worst relative deviation of the maintained p-aggregate — ⊕/⊖ is
          exact on p, so this is rounding noise. *)
  max_w_err : float;  (** Same for w — bounded by [w_tolerance]. *)
  counters : Contention.Admission.counters;
      (** Final operation counters: the churn tier pins [full_rebuilds] to 0
          and the refold counters below a storm threshold against these. *)
  churn_violations : Metamorphic.violation list;
}

val churn_passed : churn_result -> bool

val churn_app :
  Sdfgen.Rng.t ->
  procs:int ->
  period_slack:float ->
  name:string ->
  Contention.Analysis.app
(** One resident application as the churn stream draws it: a 2–4 actor
    random graph with execution times in [\[2, 20\]], mapped modulo [procs],
    its HSDF period times [period_slack] as the activation period (random
    state spaces are unbounded).  Up to 50 redraws avoid a saturated actor,
    which would have no ⊖ inverse.  Consumes one {!Sdfgen.Rng.split} of
    [rng] per draw. *)

val churn : ?config:churn_config -> seed:int -> unit -> churn_result
(** Run one churn campaign.  Deterministic in [(config, seed)].
    @raise Invalid_argument on a negative event count. *)

val to_corpus : failure -> Corpus.entry
(** The corpus entry of a failure (shrunk spec + property + detail). *)

val replay : ?config:Oracle.config -> dir:string -> unit -> (string * Oracle.outcome) list * (string * string) list
(** Re-check every corpus entry: [(path, outcome)] for entries that parsed
    (a corpus case documents a {e fixed} bug, so its outcome must be clean)
    and [(path, error)] for files that did not. *)
