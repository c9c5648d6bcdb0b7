(** The use-case sweep behind Table 1 and Figure 6: every (non-empty)
    use-case is simulated and analysed with every estimator, and per-app
    periods are compared. *)

type observation = {
  usecase : Contention.Usecase.t;
  app_index : int;
  simulated_period : float;  (** Steady-state mean from {!Desim.Engine}. *)
  simulated_worst : float;  (** Worst inter-iteration gap observed. *)
  estimated_periods : (Contention.Analysis.estimator * float) list;
}

type timing = {
  simulation_s : float;  (** Wall-clock spent simulating the whole sweep. *)
  analysis_s : (Contention.Analysis.estimator * float) list;
      (** Wall-clock per estimator for the whole sweep. *)
}

type t = {
  workload : Workload.t;
  estimators : Contention.Analysis.estimator list;
  observations : observation list;
  timing : timing;
}

val run :
  ?horizon:float ->
  ?estimators:Contention.Analysis.estimator list ->
  ?usecases:Contention.Usecase.t list ->
  ?progress:(int -> int -> unit) ->
  ?jobs:int ->
  Workload.t ->
  t
(** [run w] sweeps all [2^n - 1] use-cases (or the given subset) with the
    paper's four estimators by default.  [horizon] defaults to the paper's
    [500_000.] cycles.

    [jobs] is the number of domains use-cases are distributed over
    ({!Pool.map_range}; default {!Pool.default_jobs}, i.e. the machine's
    recommended domain count minus one, overridable with the
    [CONTENTION_JOBS] environment variable).  The sweep is deterministic in
    [jobs]: every use-case is simulated and analysed from state that is a
    pure function of [(w, usecase)] — stochastic firing times draw from an
    RNG seeded per use-case ({!Workload.sim_firing_time}) — and observations
    are collected in use-case order, so [run ~jobs:k w] returns results
    bit-identical to [run ~jobs:1 w] for every [k].

    Analysis runs on the zero-allocation kernel pass
    ({!Contention.Analysis.estimate_prepared}) over one
    {!Contention.Analysis.workspace} per domain, so a [jobs]-way sweep
    allocates estimator scratch [jobs] times in total, not per use-case.

    [progress done total] is called after each use-case, serialised under a
    mutex with strictly increasing [done] counts; the callback must therefore
    be fast and must not itself call back into the sweep.  {!timing} fields
    are per-task CPU-second sums merged after the pool joins, so they remain
    comparable across [jobs] values (they exceed wall-clock time when
    [jobs > 1]). *)

val inaccuracy_period : t -> Contention.Analysis.estimator -> float
(** Mean absolute percent difference between estimated and simulated period,
    over all observations — Table 1's "Period" column. *)

val inaccuracy_throughput : t -> Contention.Analysis.estimator -> float
(** Same on [1/period] — Table 1's "Throughput" column. *)

val inaccuracy_by_size : t -> Contention.Analysis.estimator -> (int * float) array
(** Figure 6: [(k, mean inaccuracy over use-cases with k active apps)] for
    each occurring [k], ascending. *)
