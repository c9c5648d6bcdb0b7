(** Actor load descriptors: the only information the probabilistic analysis
    needs from an application (paper Definitions 4 and 5).

    - {e Blocking probability} [p = tau * q / period]: the probability that
      the actor occupies its processor at a random instant.
    - {e Average blocking time} [mu]: the expected remaining service time
      given that the actor is found occupying the processor.  For a constant
      execution time the remaining time is uniform on [\[0, tau\]], so
      [mu = tau / 2] (paper Equations 1–2). *)

type t = private {
  p : float;  (** Blocking probability, in [\[0, 1\]]. *)
  mu : float;  (** Average blocking time, ≥ 0. *)
  tau : float;  (** Execution (or response) time the load was derived from. *)
}

val make : p:float -> mu:float -> tau:float -> t
(** @raise Invalid_argument if [p] is outside [\[0,1\]] or [mu] or [tau] is
    negative. *)

val of_actor : exec_time:float -> repetitions:int -> period:float -> t
(** [of_actor ~exec_time ~repetitions ~period] is the load of an actor that
    fires [repetitions] times per graph iteration of length [period]:
    [p = exec_time * repetitions / period], capped at [1.] (a saturated
    resource), and [mu = exec_time / 2].
    @raise Invalid_argument if any argument is non-positive or [period] is
    not finite. *)

val of_distribution : dist:Dist.t -> repetitions:int -> period:float -> t
(** Variable execution times (the paper's Section 6 extension): the blocking
    probability uses the mean execution time, and the average blocking time
    becomes the mean residual life [E X² / (2 E X)] instead of [tau / 2].
    @raise Invalid_argument on an invalid distribution, non-positive
    [repetitions] or a [period] that is not finite and positive. *)

val waiting_product : t -> float
(** [mu * p] — the actor's expected contribution to another actor's waiting
    time, written [W] in this library. *)
