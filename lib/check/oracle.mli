(** The differential oracle: every property a materialized case must satisfy.

    For one {!Case.t} the oracle cross-checks the estimator stack at three
    levels, using mathematically provable relations rather than golden
    values, so any reported violation is a real bug (or a tolerance to
    justify), not drift:

    {e Isolation periods} — the three independent throughput engines
    (self-timed state space, HSDF + maximum cycle ratio, max-plus
    eigenvalue) must agree on every application graph.

    {e Waiting-time kernels} — per actor, against the co-mapped loads:
    - Eq. 4 equals the exponential brute-force enumeration (≤ 6 contenders);
    - the truncation sandwich: order 2 ≥ order 4 ≥ exact ≥ order 5 ≥ order 3
      (even truncations over-estimate, odd under-estimate — Section 4.1);
    - a truncation of order ≥ n is the exact value (the symmetric
      polynomials of higher degree vanish);
    - the worst case dominates the exact expectation
      ([E(wait|S) = (2|S|-1)/|S| · Σ μ ≤ 2 Σ μ] for every subset);
    - composability stays within a configurable envelope of exact;
    - the {!Metamorphic} relations.

    {e Engine equivalence} — per use-case, every entry point of the
    zero-allocation kernel pass against the list-based {!reference} for
    every estimator ({!kernel_agreement}).

    {e Periods under contention} — per use-case:
    - every estimate is finite, positive, and at least the isolation period;
    - the kernel ordering transfers to periods (cycle ratios are monotone in
      execution times): wc ≥ order 2 ≥ order 4 ≥ exact;
    - the simulated average period lies between isolation and the worst-case
      bound (within [sim_tolerance], covering finite-window wobble);
    - doubling every execution time doubles isolation and estimated periods;
    - the simulator produced enough iterations to measure at all (a [nan]
      average period is itself a violation).

    As a by-product the oracle reports each estimator's percentage error
    against the simulated period — the fuzz campaign aggregates these into
    the accuracy table that mirrors the paper's Table 1. *)

type violation = Metamorphic.violation = {
  property : string;
  detail : string;
}

type config = {
  sim_tolerance : float;
      (** Relative slack on simulator-vs-bound comparisons (finite horizon,
          warm-up placement).  Default 0.02. *)
  comp_envelope : float;
      (** Maximum relative deviation of the composability kernel from the
          exact series.  ⊗ matches Eq. 4 to second order only and
          over-estimates increasingly under saturation (up to ~1.3× exact
          observed on generated workloads), so this is an empirical
          regression envelope, not a theorem; default 2.  Tight {e provable}
          bounds on the fold — between the plain waiting-product sum and
          that sum times 1.5^(n-1) — are always checked separately. *)
  horizon_iterations : float;
      (** Simulation horizon as a multiple of the largest worst-case period,
          so even the slowest application completes well over the 20 warm-up
          iterations.  Default 50. *)
  scaling_factor : float;
      (** Execution-time multiplier of the case-level scaling check.
          Default 2 (keeps integer times integral). *)
}

val default_config : config

type outcome = {
  violations : violation list;
  errors : (string * float) list;
      (** One [(estimator name, |estimate - simulated| / simulated * 100)]
          entry per estimator and active application; empty when the
          simulation itself was flagged. *)
}

val passed : outcome -> bool

val estimators : (string * Contention.Analysis.estimator) list
(** The checked estimators with their report names, most conservative
    first: wc, order-2, order-4, comp, exact. *)

val check_kernel :
  ?config:config ->
  ?exact:(Contention.Prob.t list -> float) ->
  Sdfgen.Rng.t ->
  Contention.Prob.t list ->
  violation list
(** The per-actor kernel checks against one list of co-mapped loads.
    [exact] substitutes the reference implementation of Eq. 4 — the hook the
    tests use to prove the oracle catches an injected estimator bug (e.g. a
    dropped [(-1)^(j+1)] sign) without patching the library. *)

val waiting_time_brute_force : Contention.Prob.t list -> float
(** Equation 4's model by enumeration, the oracle for
    {!Contention.Exact.waiting_time}: every blocking subset [S] and every
    choice of the in-service actor.
    [E(wait | S) = (2|S| - 1)/|S| * sum_(i in S) mu_i] (uniform in-service
    choice; residual [mu] for the served actor, full [2 mu] for each queued
    one).  Exponential in the list length.
    @raise Invalid_argument beyond 25 loads. *)

val reference :
  Contention.Analysis.estimator ->
  (Contention.Analysis.app * Contention.Prob.t array * Sdf.Hsdf.t) list ->
  Contention.Analysis.estimate list
(** The list-based Figure-4 pass, the one reference for the kernel pass of
    {!Contention.Analysis} and {!Contention.Kernel.period_into}:
    {!Contention.Analysis.waiting_time_for} per actor and
    {!Sdf.Hsdf.period_of_expansion} per application.  Each application comes
    with its loads and HSDF expansion, so timing it times only the pass. *)

val kernel_agreement :
  Contention.Analysis.app list ->
  violation list ->
  violation list
(** Differential check against {!reference} on one use-case, for every
    estimator: {!Contention.Analysis.estimate_prepared}, [estimate
    ~iterations:2] and [estimate_with_loads] must agree with it to 1e-9.
    Part of {!check}. *)

val check : ?config:config -> Case.t -> outcome
(** Run every level on a case.  Deterministic: the metamorphic RNG is seeded
    from the case spec.  Never raises — an escaped exception (the crash
    detector for NaN/∞ guards, Invalid_argument, stack overflow) is reported
    as a ["crash"] violation with its backtrace. *)

(** {1 Margin coverage}

    The statistical oracle behind the admission margins: a served
    {!Contention.Margin.t} claims the contended period lands inside
    [[lo, hi]] with the stated probability, and the only ground truth for
    that claim is replaying the population through the simulator with fresh
    execution-time draws and counting. *)

type coverage = {
  replays : int;
  covered : int;  (** Replays whose observed period fell inside the margin. *)
  observed_coverage : float;  (** [covered / replays]. *)
  served : Contention.Margin.t;  (** The margin the replays were judged by. *)
}

val margin_coverage :
  ?replays:int ->
  ?slack:float ->
  ?horizon:float ->
  ?seed:int ->
  procs:int ->
  spec:Contention.Admission.margin_spec ->
  app:string ->
  Contention.Analysis.app list ->
  coverage * violation list
(** Admit [apps] best-effort, serve a margin for [app] under [spec], then
    replay the whole population [replays] times (default 200) with
    execution times drawn from each application's declared distributions
    (constant-time apps replay deterministically).  A ["margin-coverage"]
    violation is reported when the observed coverage falls more than
    [slack] (default 0.02 — two percentage points) below the stated
    confidence; starved replays are ["margin-starved"] violations and do
    not count as covered.
    @raise Invalid_argument if [replays < 1], [app] is not in the
    population, duplicate names keep it from being admitted, or the spec is
    invalid. *)
