(** Period estimation under resource contention — the paper's Figure 4
    algorithm with pluggable waiting-time estimators.

    For every application in a use-case:
    + derive each actor's blocking probability and average blocking time from
      its {e isolation} period (Definitions 4–5);
    + group actors by the processor they are mapped on — across {e all}
      applications of the use-case;
    + estimate each actor's expected waiting time from the co-mapped actors'
      loads, add it to the execution time (response time);
    + recompute the application period by maximum-cycle-ratio analysis of
      the graph's HSDF expansion with response times as execution times.

    Every entry point below runs this as one pass over flat, preallocated
    arrays ({!Kernel}), and every contended period, here and in
    {!Admission}, {!Explain} and {!Tdma}, comes from {!Kernel.period_into}:
    the exact ratio of the application's critical cycle, certified by one
    probe when the cycle is among the forms {!prepare} seeds.  Their
    reference is the list-based pass [Check.Oracle.reference]: waits agree
    with it bit for bit, periods within its bisection's 1e-9 relative. *)

type estimator =
  | Worst_case  (** Baseline: sum of others' execution times ({!Wcrt}). *)
  | Order of int  (** m-th order truncation of Eq. 4 ({!Approx}). *)
  | Composability  (** ⊕/⊗ aggregation with inverses ({!Compose}). *)
  | Exact  (** Full Eq. 4 ({!Exact}). *)

val estimator_name : estimator -> string
(** The canonical name: ["worst-case"], ["second-order"], ["fourth-order"],
    ["order-M"] for other orders, ["composability"], ["exact"].  It names
    the estimator on the wire and in the estimate cache's key. *)

val estimator_of_name : string -> (estimator, string) result
(** Exactly the canonical names back, with ["order-M"] for any M >= 2 —
    nothing looser.  Provenance records are checked against it. *)

val estimator_of_string : string -> (estimator, string) result
(** The grammar of the wire protocol and of the CLI's [--method]: any
    {!estimator_of_name} name, the aliases ["wc"], ["o2"], ["o4"] and
    ["comp"], or a bare order M >= 2; case and surrounding whitespace are
    ignored.  Errors: [unknown estimator "s"], or [estimator order must be
    >= 2, got M] for an order below 2. *)

val all_paper_estimators : estimator list
(** [[Worst_case; Order 4; Order 2; Composability]] — the four methods of the
    paper's evaluation, in its Figure 5 legend order. *)

type app = private {
  graph : Sdf.Graph.t;
  mapping : Mapping.t;
  repetition : int array;
  isolation_period : float;
  distributions : Dist.t array option;
      (** Per-actor execution-time distributions when the application uses
          the variable-execution-time extension; [None] for the paper's
          constant-time base model. *)
}

val app :
  ?period:float ->
  ?procs:int ->
  ?distributions:Dist.t array ->
  Sdf.Graph.t ->
  mapping:Mapping.t ->
  app
(** Wrap a graph and its mapping.  The isolation period is computed with
    {!Sdf.Statespace} unless [period] is given.  When [procs] is given the
    mapping is validated against it; without it, processor ids must still
    be non-negative.

    With [distributions] (one per actor), the graph's execution times are
    replaced by the distribution means for all throughput computations and
    the loads use mean residual lives as blocking times (Section 6 of the
    paper); the per-firing durations themselves are only drawn when
    simulating ({!Desim.Engine.run}'s [firing_time] hook).
    @raise Invalid_argument on a deadlocking graph, invalid mapping, a
    distribution array of the wrong length, or a [period] that is not
    finite and positive. *)

val loads : app -> Prob.t array
(** Per-actor load descriptors from the isolation period. *)

val loads_at_period : app -> period:float -> Prob.t array
(** Load descriptors re-based on another period — e.g. a measured one (the
    Section 6 calibration).  @raise Invalid_argument if it is not finite
    and positive. *)

type estimate = {
  for_app : app;
  waiting_times : float array;  (** Estimated waiting time per actor. *)
  response_times : float array;  (** [exec_time + waiting_time] per actor. *)
  period : float;  (** Estimated application period in the use-case. *)
}

val throughput : estimate -> float
(** [1 / period]. *)

val adjusted_graph : estimate -> Sdf.Graph.t
(** The application graph with response times as execution times — the
    object the new period was computed on, also usable for latency and
    buffer analysis under contention ({!Sdf.Metrics}). *)

val contended_metrics : estimate -> Sdf.Metrics.t option
(** {!Sdf.Metrics.analyse} of {!adjusted_graph}: estimated latency, makespan
    and buffer peaks of the application {e while sharing} its processors. *)

val estimate :
  ?iterations:int ->
  estimator ->
  app list ->
  estimate list
(** [estimate est apps] runs the Figure 4 algorithm for the use-case
    consisting of exactly [apps] (order preserved in the result).

    [iterations] (default [1], the paper's single pass) re-derives blocking
    probabilities from the estimated periods and repeats the analysis — a
    fixed-point refinement evaluated as an ablation.

    Waiting times are estimated from {e every} co-mapped actor, including
    actors of the same application sharing a node (the Figure 4 algorithm
    makes no distinction); a lone application whose actors all have dedicated
    processors therefore keeps its isolation period exactly.  Every pass runs
    on the calling domain's {!shared_workspace}. *)

type cache
(** Use-case-invariant per-application precomputation: the isolation-period
    load descriptors ({!loads}) and the HSDF expansion of the application
    graph, flattened for {!Kernel.period_into} with its cycle forms seeded
    by the critical cycle at the isolation execution times.  The expansion's
    topology does not depend on execution times, and the forms never change
    after [prepare], so one cache serves every response time assignment and
    its periods depend on nothing else.  A cache depends only on the [app]
    it was prepared from, so it can be computed once per workload, shared
    read-only across domains, and reused by every use-case the application
    appears in. *)

val prepare : app -> cache

val period_with : cache -> response_times:float array -> float
(** The period of the cache's application with [response_times] as
    execution times: the maximum cycle ratio of its HSDF expansion, by
    {!Kernel.period_into} on the calling domain's {!shared_workspace}.
    @raise Invalid_argument unless there is one response time per actor,
    or, as {!Kernel.period_into}, on a negative or non-finite time. *)

type workspace
(** Preallocated buffers for the Figure-4 pass ({!Kernel}):
    per-processor member layout, flat load/wait arrays, period-search
    scratch.  Buffers grow to the workload's high-water mark and are then
    reused — after warm-up a pass performs no heap allocation.  Not
    thread-safe: use one per domain. *)

val workspace : unit -> workspace

val shared_workspace : unit -> workspace
(** The calling domain's workspace (domain-local storage) — what the
    [?workspace] arguments default to.  Parallel sweeps ({!Exp.Pool}) thus
    reuse one set of buffers per domain with no sharing or locking. *)

val estimate_prepared :
  ?workspace:workspace -> estimator -> (app * cache) list -> estimate list
(** Exactly {!estimate} with [iterations = 1], but with the per-app
    isolation work supplied by the caller instead of being recomputed: the
    results are bit-identical to [estimate est apps].  This is the hot path
    of {!Exp.Sweep}, where each application's cache is hit by up to
    [2^(n-1)] use-cases.  The pass runs over [workspace] (default: the
    domain's {!shared_workspace}).
    @raise Invalid_argument when a cache was prepared from a different
    application than the one it is paired with. *)

(** {1 Batched evaluation}

    Sweeping the use-cases of one workload evaluates the same applications
    under up to [2^n - 1] activation masks.  [prepared] fixes the workload
    once; {!estimate_periods_into} then evaluates many masks against it,
    sharing one {!workspace} across calls. *)

type prepared
(** A fixed workload: applications and their caches, validated once. *)

val prepare_workload : ?caches:cache array -> app array -> prepared
(** [prepare_workload apps] runs {!prepare} on each app (or adopts [caches]
    when given, e.g. ones already hoisted by a sweep).
    @raise Invalid_argument on a cache/app mismatch or length mismatch. *)

val estimate_periods_into :
  workspace -> estimator -> prepared -> usecase:Usecase.t -> out:float array -> int
(** The allocation-free core: evaluates one use-case and writes the period
    of the [k]-th active application (ascending by index) to [out.(k)],
    returning the number of active applications.  No estimate records, no
    spans, no lists — once the workspace is warm, a call performs {e zero}
    heap allocation (enforced by the test suite's allocation budget).
    [out] must have room for {!Usecase.cardinal}[ usecase] periods;
    validation is done by {!prepare_workload}. *)

val waiting_time_for : estimator -> Prob.t list -> float
(** The list-based per-actor waiting time: expected wait inflicted by the
    given co-mapped loads, folded in list order.  The kernel's evaluators
    reproduce it bit for bit on the same contender order. *)

val estimate_with_loads :
  estimator ->
  (app * Prob.t array) list ->
  estimate list
(** One Figure-4 pass with caller-supplied per-actor loads — the building
    block behind {!estimate_calibrated}.
    @raise Invalid_argument on a loads array of the wrong length. *)

val estimate_calibrated :
  estimator ->
  (app * float) list ->
  estimate list
(** Run-time calibration (the paper's Section 6: "the approach can benefit
    even more by using the run-time throughput of the applications"):
    blocking probabilities are derived from each application's {e measured}
    period instead of its isolation period, and one estimation pass is run
    on top.  Since contention stretches periods, measured-period loads are
    smaller and the estimate tightens towards the observed system.
    @raise Invalid_argument on a measured period that is not finite and
    positive (a simulation that completes no iteration measures NaN). *)
