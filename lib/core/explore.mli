(** Mapping design-space exploration driven by the probabilistic estimator.

    The paper's motivation is early design-time evaluation: because one
    analysis costs milliseconds instead of a simulation run, an optimiser can
    afford to score thousands of candidate mappings.  This module provides a
    deterministic steepest-descent search over single-actor moves, scored by
    the estimated periods of all applications.

    The search is deliberately simple — the point it demonstrates is that
    the estimator is cheap enough to sit in an optimisation loop. *)

type assignment = (Sdf.Graph.t * Mapping.t) list
(** One mapping per application, in a fixed application order. *)

val score : ?estimator:Analysis.estimator -> procs:int -> assignment -> float
(** Mean over applications of [estimated period / isolation period] — lower
    is better; [1.0] means contention-free.  Default estimator:
    [Order 2].  @raise Invalid_argument on invalid mappings. *)

type outcome = {
  assignment : assignment;
  initial_score : float;
  final_score : float;
  moves : int;  (** Accepted single-actor moves. *)
  evaluations : int;  (** Estimator invocations spent. *)
}

val improve :
  ?estimator:Analysis.estimator ->
  ?max_moves:int ->
  procs:int ->
  assignment ->
  outcome
(** Steepest descent: each round scores every (actor, target processor) move
    and applies the best strictly-improving one, stopping at a local optimum
    or after [max_moves] (default [32]) accepted moves.  Each application is
    prepared once ({!Analysis.prepare}: isolation period, loads, HSDF
    expansion), since none of it depends on the mapping, and re-mapped per
    candidate ({!Analysis.remap}); a candidate is scored exactly as
    {!score} would score it. *)
