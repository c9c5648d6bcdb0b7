(** Zero-allocation estimator kernel.

    Flat-array re-implementations of the waiting-time estimators and the
    period engine, evaluating entirely over preallocated scratch buffers:
    once a {!scratch} has grown to a workload's high-water mark, calls
    perform {e no} heap allocation (minor or major).  The waiting-time
    evaluators reproduce the reference implementations' floating-point
    operation sequences exactly — same fold orders, same parenthesisation,
    same guarded deconvolutions — so waits are {e bit-identical} to the
    list-based {!Wcrt}/{!Approx}/{!Compose}/{!Exact} paths.  The period
    engine returns the exact ratio of a certified critical cycle
    ({!period_into}).  {!Analysis} builds the group layout and drives these
    evaluators — the only production Figure-4 pass and period engine; their
    reference is the list-based [Check.Oracle.reference].  See DESIGN §11
    for the memory layout and the boxing rules the code obeys.

    Group members are passed as parallel [(array, offset, count)] slices
    rather than records or lists, and results are written into caller arrays:
    on a non-flambda native compiler a float argument or return value is
    boxed at every call boundary, array reads and writes are not. *)

type scratch
(** Growable private buffers: symmetric-polynomial bases, compaction
    buffers, Bellman-Ford distances, shifted weights, relaxation parents and
    the witness cycle's per-actor counts.  Not thread-safe — use one per
    domain ({!Analysis.shared_workspace} wraps one in domain-local
    storage). *)

val scratch : unit -> scratch

val reserve_group : scratch -> int -> unit
(** Pre-grow the waiting-time buffers for groups of up to [n] members, so the
    first evaluation is already allocation-free. *)

(** {1 Waiting-time evaluators}

    Members of one processor group live at indices [off..off+n-1] of the
    parallel arrays [p] (blocking probability), [mu] (average blocking time),
    [tau] (execution time), in the same order as the reference path's
    per-processor contender list; the expected wait inflicted on member [t]
    by the other members is written to [out.(off+t)].  All evaluators handle
    lone members ([n = 1] → wait [0.]) and never allocate. *)

val wc_into : tau:float array -> off:int -> n:int -> out:float array -> unit
(** {!Wcrt}: sum of the others' execution times. *)

val order_into :
  scratch ->
  order:int ->
  p:float array ->
  mu:float array ->
  off:int ->
  n:int ->
  out:float array ->
  unit
(** {!Approx.waiting_time}: the order-[order] truncation of Eq. 4, including
    its guarded truncated deconvolution.  [order >= 2] is the caller's
    responsibility ({!Analysis} validates it once per pass). *)

val exact_into :
  scratch ->
  p:float array ->
  mu:float array ->
  off:int ->
  n:int ->
  out:float array ->
  unit
(** {!Exact.waiting_time}: the full Eq. 4 series with guarded removal. *)

val comp_into :
  p:float array ->
  mu:float array ->
  off:int ->
  n:int ->
  out:float array ->
  unit
(** {!Compose.waiting_time}: the ⊗ fold of Eq. 9, left-folded in member
    order (⊗ is only second-order associative, so the order matters and
    matches the reference list exactly). *)

(** {1 Flat maximum cycle ratio}

    The period of an HSDF expansion is its maximum cycle ratio: over the
    cycles, the sum of the edge weights (an edge weighs its source node's
    actor's execution time) over the sum of the tokens.  A cycle's {e form}
    is its per-actor edge counts [c] and its token count [d]; its ratio at
    execution times [t] is [(Σ_a c_a·t_a) / d]. *)

type graph
(** An HSDF expansion flattened for the period search: edge endpoint arrays,
    the actor index weighting each edge, and the delays; the topology-only
    verdicts (has a cycle, has a zero-delay cycle); and a fixed set of cycle
    forms found at construction.  Immutable and safe to share across
    domains. *)

val graph :
  nnodes:int ->
  name:string ->
  seeds:float array list ->
  (int * int * int * int) array ->
  graph
(** [graph ~nnodes ~name ~seeds edges] with edges [(src, dst, actor,
    delay)]; [name] is the source graph's name, used in error messages.
    The forms are the certified critical cycles at the per-actor execution
    times [seeds] ({!Analysis.prepare} passes the isolation times); with no
    seeds, an arbitrary cycle.  The set never changes afterwards, so
    {!period_into} is a pure function of the graph and the execution
    times.
    @raise Invalid_argument on a negative delay or actor index, an endpoint
    out of range, or, as {!period_into}, a seed it rejects. *)

val period_into :
  scratch ->
  graph ->
  exec:float array ->
  exec_off:int ->
  out:float array ->
  out_idx:int ->
  unit
(** The maximum cycle ratio with per-actor execution times read at
    [exec.(exec_off + actor)], written to [out.(out_idx)].

    Dinkelbach's critical-cycle iteration, started at the best of the
    graph's forms: a Bellman-Ford probe at the current ratio either finds
    no cycle above it, which certifies it, or yields a witness cycle whose
    higher ratio becomes the next one.  The result is always a cycle's ratio
    [(Σ_a c_a·t_a) / d], summed in actor order: on integral execution times
    it is the correctly rounded rational maximum cycle ratio
    ({!Sdf.Hsdf.period_rational}), and it lies within 1e-9 relative of the
    bisection of {!Sdf.Hsdf.period_of_expansion}.  The probe's relaxation
    tolerance is [1e-12 · max 1 W], [W] the total edge weight, so that it
    stays above the probe's roundoff at any scale.
    @raise Invalid_argument with the messages of {!Sdf.Mcm}: negative or
    non-finite weights, an edgeless or cycle-free graph, or a zero-delay
    cycle; and, naming the graph, when a witness cycle fails to improve on
    the current ratio (a probe defeated by roundoff). *)

(** {1 Incremental group state}

    A mutable per-processor population of loads with its elementary
    symmetric-polynomial basis [e_0..e_n] maintained {e incrementally}: ⊕
    (member joins) is one O(n) reconvolution, ⊖ (member leaves) and a
    blocking-probability change are one guarded O(n) deconvolution
    ({!Sympoly.remove}'s guard, falling back to the O(n²) rebuild on
    cancellation) — instead of recomputing the O(n·m) basis per change.
    This backs the ⊕/⊖ admission path ({!Admission}): waiting-time queries
    evaluate Eq. 4 directly from the maintained basis. *)
module Group : sig
  type t

  val create : ?capacity:int -> ?drift_bound:float -> unit -> t
  (** [drift_bound] caps the accumulated deconvolution-error estimate before
      the basis is refolded exactly (default [1e-6]); see {!drift}.
      @raise Invalid_argument on a non-positive bound. *)

  val size : t -> int

  val es : t -> float array
  (** The maintained basis; degrees [0..size] are valid.  Exposed for tests
      and diagnostics — treat as read-only. *)

  val es_reference : t -> float array
  (** A fresh from-scratch O(n²) fold of the current member list — the
      oracle the churn suite compares the maintained basis against.  Does
      not mutate the group. *)

  val drift : t -> float
  (** Accumulated error estimate of the maintained basis: each unguarded
      state deconvolution (⊖ or update) adds [(size+1)·ulp]; exact refolds
      (guard fallback, {!recompute}, the drift-bound refold) reset it. *)

  val rebuilds : t -> int
  (** State-path guard fallbacks: removals/updates whose deconvolution
      cancelled and was replaced by an exact O(n²) refold.  The churn suite
      pins this below a storm threshold. *)

  val drift_refolds : t -> int
  (** Exact refolds forced by {!drift} crossing the create-time bound. *)

  val mem : t -> int -> bool

  val add : t -> id:int -> p:float -> mu:float -> tau:float -> unit
  (** ⊕ member [id].  @raise Invalid_argument on a duplicate id or
      [p] outside [0,1]. *)

  val remove : t -> id:int -> unit
  (** ⊖ member [id] (guarded deconvolution).  @raise Invalid_argument on an
      unknown id. *)

  val update : t -> id:int -> p:float -> mu:float -> tau:float -> unit
  (** Replace member [id]'s load: deconvolve the old probability, refold the
      new one — the O(n) delta for a re-based blocking probability (e.g.
      {!Admission.observe}'s run-time calibration).
      @raise Invalid_argument as {!add}/{!remove}. *)

  val recompute : t -> unit
  (** Rebuild the basis from the member list in O(n²) — the reference the
      incremental path is validated against. *)

  val exact_waiting : t -> excluding:int option -> float
  (** Expected wait (full Eq. 4) the group inflicts on an observer:
      [excluding:(Some id)] for an admitted member (its own load does not
      block it), [None] for an outside candidate.  O(n) per contender from
      the maintained basis.  @raise Invalid_argument on an unknown id. *)

  val order_waiting : t -> order:int -> excluding:int option -> float
  (** Order-m truncation of {!exact_waiting}.
      @raise Invalid_argument if [order < 2] or on an unknown id. *)

  val wc_waiting : t -> excluding:int option -> float
  (** Worst case: sum of the (other) members' execution times. *)
end
