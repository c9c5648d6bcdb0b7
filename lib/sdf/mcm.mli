(** Maximum cycle ratio of a weighted digraph.

    Each edge [(from, to, weight, delay)] has a non-negative real weight and a
    non-negative integer delay.  The maximum cycle ratio is
    [max over cycles C of (sum of weights of C / sum of delays of C)].
    For an HSDF dependency graph this is the iteration period (MCM analysis;
    the paper's reference [4]).

    Solved by parametric search: the predicate "there is a cycle with
    [sum (w - lambda*d) > 0]" is monotone in [lambda]; a Bellman-Ford positive
    cycle detection decides it and a bisection locates the threshold. *)

val has_positive_cycle : nodes:int -> (int * int * float) array -> bool
(** Whether the graph with real edge weights contains a cycle of strictly
    positive total weight (detected with a tolerance of [1e-12] per
    relaxation to absorb rounding). *)

val zero_delay_cycle : nodes:int -> (int * int * 'w * int) array -> bool
(** Whether some cycle has only zero-delay edges (an SDF deadlock). *)

val max_cycle_ratio :
  ?epsilon:float -> nodes:int -> (int * int * float * int) array -> float option
(** [None] when the graph is acyclic.  [epsilon] (default [1e-9]) is the
    absolute bisection tolerance.
    @raise Invalid_argument if some cycle has zero total delay (the ratio is
    unbounded — an SDF deadlock) or some edge has negative weight or delay. *)

val max_cycle_ratio_rational :
  nodes:int -> (int * int * int * int) array -> Rational.t option
(** Exact maximum cycle ratio for integer edge weights.

    The optimum is a fraction [p/q] with [q] bounded by the total delay, so a
    float bisection down to interval width [1/q_max²] followed by a
    continued-fraction (best rational approximation) step identifies the
    unique candidate, which is then verified with exact integer
    positive-cycle tests.  [None] when the graph is acyclic.
    @raise Invalid_argument as {!max_cycle_ratio}, or when intermediate
    products would overflow the native integer range. *)

val has_positive_cycle_int : nodes:int -> (int * int * int) array -> bool
(** Exact integer variant of {!has_positive_cycle}. *)
