(** Execution-time distributions — the paper's Section 6 extension to
    "varying execution times ... that follow a probabilistic distribution".

    The analysis needs exactly two moments of an actor's execution time [X]:
    - the {e mean} [E X], which drives the blocking probability
      [P = E X * q / Per];
    - the {e mean residual life} [E X² / (2 E X)], which replaces the
      constant-time [mu = tau / 2] as the average blocking time.  (For an
      observer arriving at a random busy instant, longer firings are
      proportionally more likely to be in progress — the inspection paradox —
      so the residual is larger than half the mean unless [X] is constant.) *)

type t =
  | Constant of float  (** The paper's base model; residual [tau / 2]. *)
  | Uniform of { lo : float; hi : float }
      (** Uniform on [\[lo, hi\]], e.g. data-dependent decode times. *)
  | Discrete of (float * float) list
      (** [(value, weight)] pairs; weights need not be normalised.  Models
          profiled execution-time histograms. *)
  | Exponential of { mean : float }
      (** Memoryless tail; residual equals the mean. *)

val validate : t -> unit
(** @raise Invalid_argument on non-positive values, empty or negative-weight
    discrete lists, or [lo > hi]. *)

val mean : t -> float
val second_moment : t -> float
val third_moment : t -> float

val residual : t -> float
(** Mean residual life [second_moment / (2 * mean)] — the generalised
    average blocking time [mu]. *)

val residual_second_moment : t -> float
(** Second moment of the stationary residual life,
    [third_moment / (3 * mean)] — the ingredient of a blocking-time
    {e variance}, which the admission margins need on top of the mean
    ({!Margin}). *)

val residual_sample : t -> u1:float -> u2:float -> float
(** One draw from the stationary residual-life distribution: the
    length-biased firing is selected by inversion with [u1] and the position
    inside it with [u2] (for the memoryless exponential only [u1] matters).
    Deterministic in [(u1, u2)]; its expectation is {!residual}.
    @raise Invalid_argument if either uniform is outside [\[0,1)]. *)

val sample : t -> u:float -> float
(** [sample d ~u] maps a uniform [u] in [\[0,1)] to a draw from [d] by
    inversion.  Deterministic in [u], so simulations stay reproducible.
    @raise Invalid_argument if [u] is outside [\[0,1)]. *)
