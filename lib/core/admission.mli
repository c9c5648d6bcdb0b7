(** Run-time admission control (the paper's Section 6).

    Because the composability operators are associative and invertible, a
    resource manager can keep one aggregate {!Compose.t} per processor and
    add or subtract a whole application in O(actors) work — no re-analysis of
    the other applications.  An incoming application is admitted only if its
    own estimated throughput meets its requirement {e and} no already
    admitted application is pushed below its own requirement.

    The controller is {e fully incremental}: joins are ⊕, leaves are ⊖, and
    {!observe} re-bases each actor with an O(n) update — both on the
    composability aggregates and on the per-processor {!Kernel.Group}
    symmetric-polynomial bases behind {!estimated_period_via}.  Neither path
    performs a from-scratch refold on join/leave; the two sanctioned
    exceptions are a guarded rebuild when a deconvolution cancels and a
    {e drift-triggered} refold when the accumulated inverse error crosses a
    bound (⊗ is only second-order associative, so non-LIFO ⊖ leaves an
    O(p²/4) residue in the w-aggregate).  {!counters} exposes both so tests
    can pin them.

    On request ({!try_admit}'s [?margin], {!margin_for}), the point estimate
    is wrapped in a {!Margin.t} confidence interval — see DESIGN §15.

    Every period here is {!Analysis.period_with} over a cache prepared once
    per call (once per margin, not per sample); nothing is kept per
    admitted entry. *)

type requirement = {
  min_throughput : float;
      (** Iterations per time unit the application must sustain; [0.] means
          best-effort (always satisfiable). *)
}

val best_effort : requirement

(** How to derive a {!Margin.t} for an admitted application. *)
type margin_spec = {
  confidence : float;  (** In (0, 1). *)
  method_ : Margin.method_;
  samples : int;  (** Monte-Carlo draws for the [Quantile] method. *)
  seed : int64;  (** RNG seed for the [Quantile] method — margins are
                     deterministic in the spec and the population. *)
}

val default_margin_spec : margin_spec
(** 95% confidence, z-score, 200 draws, a fixed seed. *)

type verdict =
  | Admitted of { margin : Margin.t option }
      (** Admitted; [margin] is the confidence interval around the served
          period when one was requested. *)
  | Rejected_candidate of { estimated : float; required : float }
      (** The candidate itself would miss its requirement. *)
  | Rejected_victim of { app : string; estimated : float; required : float }
      (** Admitting would push an existing application below its
          requirement. *)

type counters = {
  joins : int;  (** Committed admissions. *)
  leaves : int;  (** Withdrawals (including {!release}). *)
  observes : int;  (** Run-time calibrations. *)
  incremental_ops : int;
      (** O(n) ⊕/⊖/update steps on the composability aggregates. *)
  full_rebuilds : int;
      (** From-scratch aggregate rebuilds forced by a saturated (P = 1)
          actor — the only non-incremental path left. *)
  drift_refolds : int;
      (** Per-processor aggregate refolds forced by the ⊖ drift bound. *)
  group_rebuilds : int;
      (** {!Kernel.Group} guard fallbacks across all processors. *)
  group_drift_refolds : int;
      (** {!Kernel.Group} drift-bound refolds across all processors. *)
}

type t
(** Mutable controller state: admitted applications plus one load aggregate
    and one incremental kernel group per processor. *)

val create :
  ?refold_bound:float -> ?group_drift_bound:float -> procs:int -> unit -> t
(** [refold_bound] caps the accumulated non-LIFO ⊖ error on a processor's
    w-aggregate before it is refolded from the population (default [0.05]);
    [group_drift_bound] is passed to {!Kernel.Group.create}.
    @raise Invalid_argument if [procs < 1] or a bound is non-positive. *)

val procs : t -> int
val admitted : t -> (string * Analysis.app * requirement) list

val counters : t -> counters
(** Monotone operation counters since {!create} — the churn suite asserts
    the incremental invariants ([full_rebuilds] stays 0, refolds stay below
    a storm threshold) against these. *)

val try_admit : ?margin:margin_spec -> t -> Analysis.app -> requirement -> verdict
(** Evaluates the candidate against the current aggregates; commits the
    admission on success.  Best-effort applications are skipped by the
    victim scan (they have no requirement to violate).  With [?margin], an
    [Admitted] verdict carries the candidate's confidence interval computed
    against the post-admission population.
    @raise Invalid_argument if an application with the same graph name is
    already admitted, the mapping targets an unknown processor, or the
    margin spec is invalid (confidence outside (0,1), [samples < 1]). *)

val withdraw : t -> string -> unit
(** Remove an admitted application by graph name, subtracting its actors from
    the aggregates with the inverse operators (Eq. 8–9).
    @raise Not_found if no such application is admitted. *)

val release : t -> string -> (unit, string) result
(** Total {!withdraw}: [Error] instead of an exception on an unknown name —
    the wire-facing entry point ({!Serve}) must never leak [Not_found]. *)

val observe : t -> string -> measured_period:float -> unit
(** Run-time calibration (the paper's Section 6): record the period the
    application is {e measured} to achieve.  Its blocking probabilities are
    re-derived from the measurement (longer observed periods mean the
    application blocks its nodes less often), and every aggregate it touches
    is re-based incrementally (⊖ old load, ⊕ new load — no rebuild), so
    subsequent admission decisions are scored against the system as it
    actually behaves.
    @raise Not_found if the application is not admitted.
    @raise Invalid_argument on a non-positive period. *)

val observed_period : t -> string -> float option
(** The last recorded measurement, if any.  @raise Not_found as {!observe}. *)

val estimated_period : t -> string -> float
(** Current period estimate of an admitted application under the present mix.
    @raise Not_found if not admitted. *)

val estimated_throughput : t -> string -> float

val margin_for : t -> margin_spec -> string -> Margin.t
(** The confidence interval around {!estimated_period} under the current
    population — what {!try_admit} computes at admission time, re-derivable
    later for auditing.  @raise Not_found if not admitted;
    @raise Invalid_argument on an invalid spec. *)

val estimated_period_via : t -> Analysis.estimator -> string -> float
(** {!estimated_period} with the estimator of your choice.  The controller
    maintains one incremental {!Kernel.Group} per processor alongside the
    composability aggregates — admissions are ⊕, withdrawals ⊖, and
    {!observe} re-bases each actor with an O(n) update — so the Eq. 4
    estimators ([Exact], [Order m], [Worst_case]) answer straight from the
    maintained symmetric-polynomial bases without re-analysing the
    population.  [Composability] is the aggregate path of
    {!estimated_period} itself.
    @raise Not_found if not admitted.
    @raise Invalid_argument if [Order m] with [m < 2]. *)

val estimated_throughput_via : t -> Analysis.estimator -> string -> float

(** {1 Introspection}

    Read-only views the churn suite's re-fold oracle compares the
    incremental state against. *)

val aggregate : t -> proc:int -> Compose.t
(** The maintained composability aggregate of one processor.
    @raise Invalid_argument on an unknown processor. *)

val refolded_aggregate : t -> proc:int -> Compose.t
(** The same aggregate refolded from the current population in insertion
    order — the oracle; does not mutate the controller. *)

val aggregate_drift : t -> proc:int -> float
(** The accumulated non-LIFO ⊖ error estimate on one processor, in
    [[0, refold_bound]]. *)

val group : t -> proc:int -> Kernel.Group.t
(** The incremental kernel group of one processor (for {!Kernel.Group.es}
    vs {!Kernel.Group.es_reference} comparisons). *)
