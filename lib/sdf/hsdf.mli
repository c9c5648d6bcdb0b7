(** Expansion of an SDFG into a Homogeneous SDFG (HSDFG).

    Every actor [a] becomes [q.(a)] copies (one per firing in an iteration);
    every channel becomes dependency edges between the producing and the
    consuming firing, annotated with the number of iterations the dependency
    crosses ({e delay}).  An extra chain over the copies of each actor (with a
    wrap-around delay of one) forbids auto-concurrency, matching the
    self-timed semantics of {!Statespace}.

    The period of the original graph is the maximum cycle ratio
    [sum of execution times / sum of delays] over the cycles of the
    expansion — see {!Mcm}. *)

type t = {
  actor : int array;
      (** Per node, the actor it fires.  Actor [a]'s [q.(a)] firings are
          consecutive nodes, in actor order and then firing order. *)
  src : int array;  (** Per edge, the producing firing's node. *)
  dst : int array;  (** Per edge, the consuming firing's node. *)
  delay : int array;  (** Per edge, the iteration distance; [>= 0]. *)
  source : Graph.t;
}
(** An expansion in flat arrays.  Its edges are strictly sorted by
    [(src, dst)]: one per pair of firings, carrying the least delay among
    the dependencies between them (larger delays are dominated for
    cycle-ratio purposes). *)

val expand : ?repetition:int array -> Graph.t -> t
(** [repetition], when given, must be the graph's repetition vector
    ({!Repetition.compute_exn}); otherwise it is computed.  Linear in the
    nodes and the raw dependencies (one per produced token and one per
    node): the pairs are counting-sorted, never compared, so an actor
    firing thousands of times costs no more per edge than one firing once.
    @raise Invalid_argument if the graph is inconsistent or disconnected. *)

val num_nodes : t -> int
val num_edges : t -> int

val period_of_expansion : t -> exec_times:float array -> float
(** Maximum cycle ratio of an existing expansion, with the node weights
    overridden by [exec_times.(actor)].  The expansion's topology (repetition
    vector, dependency edges) only depends on the graph's rates and initial
    tokens, never on execution times — so one expansion can be reused to
    recompute the period under many response-time assignments, which is the
    hot path of the contention analysis when sweeping use-cases.
    Equivalent (bit for bit) to expanding [Graph.with_exec_times] and calling
    {!period} on it.
    @raise Invalid_argument unless [exec_times] has exactly one entry per
    source-graph actor, or as {!period}. *)

val period : Graph.t -> float
(** Maximum cycle ratio of the expansion: the exact iteration period of the
    graph under self-timed execution.  Cross-validates {!Statespace.period}.
    @raise Invalid_argument on inconsistent graphs or graphs with a zero-delay
    cycle (deadlock). *)

val period_rational : Graph.t -> Rational.t
(** Exact rational period for graphs whose execution times are integers —
    free of the bisection tolerance of {!period}.
    @raise Invalid_argument if some execution time is not an integer, or as
    {!period}. *)
