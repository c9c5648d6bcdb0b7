(** Interval-valued waiting times for uncertain loads.

    At early design time execution times are estimates; this module
    propagates per-actor uncertainty through the waiting-time formulas.  The
    paper's estimators are monotone in every co-mapped actor's blocking
    probability and blocking time, so evaluating at the per-actor lower and
    upper loads yields sound bounds without interval-arithmetic blowup. *)

type bounds = { lower : Prob.t; upper : Prob.t }
(** Component-wise load bounds: [lower.p <= upper.p] and
    [lower.mu <= upper.mu]. *)

val of_load : ?p_margin:float -> ?mu_margin:float -> Prob.t -> bounds
(** Symmetric relative margins around a point load (default [0.1] each),
    clamped to valid probability range.
    @raise Invalid_argument on a negative margin. *)

val waiting_interval : Analysis.estimator -> bounds list -> float * float
(** [(lo, hi)] bracketing the waiting time a set of uncertain co-mapped
    actors inflicts, by evaluating the estimator on all-lower and all-upper
    loads. *)

val period_interval :
  Analysis.estimator ->
  (Analysis.app * bounds array) list ->
  (Analysis.app * (float * float)) list
(** Period bounds per application when every actor's load is uncertain:
    the Figure-4 algorithm run once with all-lower and once with all-upper
    loads.  The point estimate of {!Analysis.estimate} always lies within.
    @raise Invalid_argument on a bounds array of the wrong length. *)
