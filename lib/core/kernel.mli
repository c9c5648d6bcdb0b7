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

val work : scratch -> int * int
(** [(relaxations, walk_steps)]: the edges the period engine's probe rounds
    have scanned on this scratch ([edges × rounds]), and the parent links
    their cycle walks have followed, since it was made.  A test hook: the
    counts pin the engine's work where wall-clock would be noise. *)

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
  scratch ->
  name:string ->
  seeds:float array list ->
  actor:int array ->
  src:int array ->
  dst:int array ->
  delay:int array ->
  graph
(** [graph s ~name ~seeds ~actor ~src ~dst ~delay]: node [v] fires actor
    [actor.(v)], and edge [e] runs from node [src.(e)] to [dst.(e)] with
    [delay.(e)] tokens, weighing its source node's actor's execution time
    ({!Sdf.Hsdf.t}'s arrays, as {!Analysis.app} hands them over; they
    are kept, not copied, so the caller must not mutate them afterwards).
    [name] is the source graph's name, used in error messages.  Edges
    sorted by source, as an expansion's are, let a probe round carry a
    distance along node order.

    The zero-delay-cycle verdict is one O(V + E) topological pass.  The
    forms are the certified critical cycles at the per-actor execution
    times [seeds] ({!Analysis} passes the graph's own times, once per app,
    so the isolation period is the first form's ratio: {!seeded_period});
    with no seeds, an arbitrary cycle.  The searches run on [s], the
    calling domain's scratch, and depend on nothing it holds, so two
    domains seeding the same arrays find the same forms.  The set never
    changes afterwards, so {!period_into} is a pure function of the graph
    and the execution times.
    @raise Invalid_argument on edge arrays of different lengths, a
    negative delay or actor index, an endpoint out of range, or, as
    {!period_into}, a seed it rejects. *)

val deadlocks : graph -> bool
(** Whether the graph has a zero-delay cycle, which {!period_into} refuses:
    the source graph deadlocks. *)

type forms
(** What {!graph} found on its arrays: the cycle forms (each critical
    cycle's per-actor edge counts and token count) and the two topology
    verdicts (has a cycle, has a zero-delay cycle).  A few ints per actor
    and form, immutable, and safe to share across domains.  {!Analysis}
    keeps an app's forms, so that each later expansion of it adopts them
    ({!with_forms}) instead of searching again. *)

val forms : graph -> forms

val with_forms :
  forms ->
  name:string ->
  actor:int array ->
  src:int array ->
  dst:int array ->
  delay:int array ->
  graph
(** The graph {!graph} builds on these arrays, with [forms] adopted from a
    graph built on the same arrays and seeds: no probe and no topological
    pass, only {!graph}'s O(V + E) checks of the arrays.  The adopted
    verdicts keep their errors, so {!period_into} and {!deadlocks} answer
    as on the graph the forms came from, and its periods are the same bit
    for bit, since they depend on nothing but the arrays, the forms and the
    execution times.
    @raise Invalid_argument as {!graph} on bad arrays, or when [forms] were
    found on a graph with another number of actors. *)

val seeded_period : graph -> exec:float array -> float
(** The best of the graph's forms' ratios at [exec], which must be the
    graph's first seed: the seeding certified that ratio as the maximum
    cycle ratio there, so this is what {!period_into} returns at [exec],
    bit for bit, without its confirming probe.
    @raise Invalid_argument as {!period_into} on a graph with no cycle or
    with a zero-delay cycle. *)

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
    graph's forms: a Bellman-Ford probe at the current ratio either runs
    to a round that relaxes nothing, which certifies it, or yields a
    witness cycle whose higher ratio becomes the next one.  The probe
    stops at the first round whose last relaxed node's parent walk closes
    a cycle (Cherkassky & Goldberg's walk-to-root test), rather than after
    [V + 1] rounds.  The result is always a cycle's ratio
    [(Σ_a c_a·t_a) / d], summed in actor order: on integral execution times
    it is the correctly rounded rational maximum cycle ratio
    ({!Sdf.Hsdf.period_rational}), and it lies within 1e-9 relative of the
    bisection of {!Sdf.Hsdf.period_of_expansion}.  The probe's relaxation
    tolerance is [1e-12 · W], [W] the total edge weight, so that it stays
    above the probe's roundoff, and below the gap between competing cycles,
    at any scale.
    @raise Invalid_argument with the messages of {!Sdf.Mcm}: negative or
    non-finite weights, an edgeless or cycle-free graph, or a zero-delay
    cycle; and, naming the graph, when a witness cycle fails to improve on
    the current ratio (a probe defeated by roundoff). *)
