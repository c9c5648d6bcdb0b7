(** Exact expected waiting time — the paper's Equation 4.

    When an actor arrives at a node shared with actors [a_1 .. a_n], each
    [a_i] independently occupies the node with probability [P_i].  Of the
    blocking subset, one actor (uniformly chosen — no arrival order is
    imposed) is in service with expected residual [mu]; the others wait in
    queue and contribute their full execution time [tau = 2 mu].  Equation 4
    closes this model:

    {v
    W = sum_i mu_i P_i (1 + sum_(j=1)^(n-1) (-1)^(j+1)/(j+1) * e_j(P_(-i)))
    v}

    where [e_j(P_(-i))] is the elementary symmetric polynomial of the other
    actors' probabilities.  Direct evaluation is exponential (the paper cites
    O(n·n^n)); here each [e_j(P_(-i))] is obtained in O(n) from the full
    polynomial by deconvolution, giving O(n²) for one waiting time. *)

val series_coefficient : int -> float
(** [(-1)^(j+1) / (j+1)] — the weight of [e_j] in Equation 4; shared with the
    truncated evaluation in {!Approx}. *)

val waiting_time : Prob.t list -> float
(** Expected waiting time inflicted by the given co-mapped actors on an
    arriving actor.  Empty list: [0.]. *)
