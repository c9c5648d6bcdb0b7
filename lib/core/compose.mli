(** Composability-based analysis — the paper's Section 4.2.

    Two co-mapped actors are merged into one aggregate whose blocking
    probability and waiting-time product approximate the pair:

    {v
    P_ab = P_a ⊕ P_b = P_a + P_b - P_a P_b                      (Eq. 6)
    W_ab = W_a ⊗ W_b = W_a (1 + P_b/2) + W_b (1 + P_a/2)        (Eq. 7)
    v}

    ⊕ is exactly associative; ⊗ is associative to second order, which makes
    the fold order-insensitive up to higher-order terms.  Both operations
    invert (Eq. 8–9), so an actor (or a whole application) can be added to or
    removed from a node's aggregate in O(1) — the basis for run-time
    admission control ({!Admission}). *)

type t = private {
  p : float;  (** Combined blocking probability. *)
  w : float;  (** Combined waiting-time product [mu·P]. *)
}

val empty : t
(** Aggregate of no actors: [p = 0], [w = 0] (neutral element of {!combine}). *)

val of_load : Prob.t -> t

val combine : t -> t -> t
(** [⊕] on probabilities and [⊗] on waiting products.  Commutative;
    associative exactly in [p] and to second order in [w]. *)

val combine_all : t list -> t
(** Left fold of {!combine} over the list starting from {!empty}. *)

val remove : total:t -> t -> t
(** [remove ~total x] undoes [combine]: if [total = combine rest x] then
    [remove ~total x] recovers [rest] exactly (Eq. 8–9).
    @raise Invalid_argument when [x.p = 1.] (the inverse does not exist, as
    noted in the paper). *)

val waiting_time : Prob.t list -> float
(** Waiting time inflicted on an arriving actor by the given co-mapped
    actors: fold them with {!combine} and read the aggregate [w]. *)
