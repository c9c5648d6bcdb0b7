(** Run-time admission control (the paper's Section 6).

    Because the composability operators are associative and invertible, a
    resource manager can keep one aggregate {!Compose.t} per processor and
    add or subtract a whole application in O(actors) work — no re-analysis of
    the other applications.  An incoming application is admitted only if its
    own estimated throughput meets its requirement {e and} no already
    admitted application is pushed below its own requirement.

    The controller is {e fully incremental}: joins are ⊕, leaves are ⊖, and
    {!observe} re-bases each actor with ⊖ of its old load and ⊕ of its new
    one, all on the one aggregate per processor.  No path refolds from
    scratch on join/leave; the two sanctioned exceptions are a full rebuild
    when a saturated actor leaves or is re-based (P = 1 has no inverse, and
    within 1e-8 of 1 the inverse keeps no trustworthy digit), and a
    {e drift-triggered} refold of one processor when the
    accumulated inverse error crosses a bound (⊗ is only second-order
    associative, so non-LIFO ⊖ leaves an O(p²/4) residue in the
    w-aggregate).  {!counters} exposes both so tests can pin them.

    On request ({!try_admit}'s [?margin], {!margin_for}), the point estimate
    is wrapped in a {!Margin.t} confidence interval — see DESIGN §15.

    The admitted applications are indexed by graph name and linked into a
    roster in admission order, so a join's duplicate check, a lookup and a
    withdrawal are O(1) in the population, and every fold over the
    population visits it in one fixed order (newest first, oldest first for
    refolds).  Each entry also keeps the per-actor variances of its blocking
    contributions; they are set at join and reset by {!observe}.

    The z-score margin sums those variances per processor from a {e
    variance log} instead of walking the roster: one flat array of
    (processor, variance) pairs, every resident's actors in admission
    order, each resident's actors reversed.  A join appends its pairs,
    {!observe} rewrites them in place, and a withdrawal zeroes them.
    Scanned backward after the candidate's own pairs, the log adds exactly
    what a newest-first roster walk adds, in the same order, and a zeroed
    pair adds +0.0 to a sum that is never negative, so margins keep every
    bit.  Once zeroed pairs outnumber live ones, the withdrawal that zeroed
    them compacts the log in roster order: a withdrawal costs O(its
    actors), plus an O(residents) compaction at most once per as many
    zeroed pairs as the log keeps.  {!variance} and {!refolded_variance}
    let the churn oracle compare the two sums.

    Every period here is {!Analysis.period_with} over a cache prepared once
    per call (once per margin, not per sample); no prepared cache is kept
    per admitted entry.  A prepare adopts the app's cycle forms, so it
    expands the HSDF but searches nothing once the app has been seeded
    ({!Analysis.prepare}). *)

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
      (** ⊕/⊖/update steps on the composability aggregates, one per actor of
          the joining, leaving or re-based application. *)
  full_rebuilds : int;
      (** From-scratch aggregate rebuilds forced by a saturated
          (1 - P < 1e-8) actor — the only non-incremental path left. *)
  drift_refolds : int;
      (** Per-processor aggregate refolds forced by the ⊖ drift bound. *)
  group_rebuilds : int;
      (** Always 0.  Kept only because the repository benchmark
          (perfbench) still reads it; it goes when that benchmark next
          changes. *)
  group_drift_refolds : int;  (** Always 0, as [group_rebuilds]. *)
}

type t
(** Mutable controller state: admitted applications plus one load aggregate
    and its ⊖ drift estimate per processor. *)

val create : ?refold_bound:float -> procs:int -> unit -> t
(** [refold_bound] caps the accumulated non-LIFO ⊖ error on a processor's
    w-aggregate before it is refolded from the population (default [0.05]).
    @raise Invalid_argument if [procs < 1] or the bound is non-positive. *)

val procs : t -> int

val admitted : t -> (string * Analysis.app * requirement) list
(** The admitted applications, newest first. *)

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
    @raise Invalid_argument if the margin spec is invalid (confidence
    outside (0,1), [samples < 1], whatever the method; checked before
    anything else, so it raises whichever verdict would follow), an
    application with the same graph name is already admitted, or the
    mapping targets an unknown processor. *)

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
    @raise Invalid_argument on a period that is not finite and positive;
    a refused observation changes nothing. *)

val estimated_period : t -> string -> float
(** Current period estimate of an admitted application under the present mix.
    @raise Not_found if not admitted. *)

val estimated_throughput : t -> string -> float

val margin_for : t -> margin_spec -> string -> Margin.t
(** The confidence interval around {!estimated_period} under the current
    population — what {!try_admit} computes at admission time, re-derivable
    later for auditing.  @raise Invalid_argument on an invalid spec, as
    {!try_admit}, checked first; @raise Not_found if not admitted. *)

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

val variance : t -> proc:int -> float
(** The residents' summed blocking variance on one processor, as the
    z-score margin reads it: the variance log scanned backward.
    @raise Invalid_argument on an unknown processor. *)

val refolded_variance : t -> proc:int -> float
(** The same sum from a newest-first walk of the roster over each
    resident's own variances — the oracle: it must equal {!variance} bit
    for bit. *)
