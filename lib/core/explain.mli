(** Structured provenance for contention estimates.

    An {!Analysis.estimate} is a handful of numbers; this module records
    {e why} they came out that way: for every actor of every application in
    the use-case, the co-mapped contenders with their feasible-set
    probabilities [P] and expected blocking times [mu] (the inputs of
    Eq. 4/5/7), the resulting expected wait [W] and response time, the
    truncation order with its sandwich error bound (even truncations of
    Eq. 4 over-estimate, odd ones under-estimate), the ⊕/⊗ fold lineage of
    the composability estimator, and per application the isolation period,
    contended period and contention factor.

    The record is {e reproducing}: {!verify} re-derives every waiting time
    from the recorded contender descriptors alone and every period from the
    application graphs plus the re-derived response times, and demands
    bit-for-bit equality with the recorded values.  {!compute} folds each
    actor's contenders in the order the kernel pass
    ({!Analysis.estimate_prepared}) does and takes periods from the same
    engine ({!Analysis.period_with}), so a provenance record also
    reproduces a served estimate exactly — which is what the serve daemon's
    [explain] command and the shadow auditor lean on.

    The record's JSON codec is declared once, with the other wire records,
    in [Serve.Protocol] ([explain_reply_to_json] / [explain_reply_of_json]);
    this module knows no JSON. *)

type contender = {
  c_app : string;  (** Application the contender belongs to. *)
  c_actor : int;  (** Actor index within that application. *)
  c_p : float;  (** Blocking (feasible-set) probability [P]. *)
  c_mu : float;  (** Expected residual blocking time [mu]. *)
  c_tau : float;  (** Execution time the load was derived from. *)
}

type fold_step = {
  f_app : string;
  f_actor : int;
  f_p : float;  (** Aggregate [P] after ⊕-folding this contender (Eq. 6). *)
  f_w : float;  (** Aggregate [W] after ⊗-folding this contender (Eq. 7). *)
}

type sandwich = {
  s_order : int;  (** The truncation order [m] of Eq. 5 that was served. *)
  s_lower : float;  (** Under-estimating bracket (odd-order truncation). *)
  s_upper : float;  (** Over-estimating bracket (even-order truncation). *)
}
(** [s_upper -. s_lower] bounds the truncation error: the exact Eq. 4 value
    lies inside the bracket (Section 4.1's alternating-series argument). *)

type actor = {
  a_index : int;
  a_name : string;
  a_proc : int;  (** Processor the actor is mapped on. *)
  a_exec : float;  (** Execution time τ. *)
  a_p : float;  (** The actor's own blocking probability. *)
  a_mu : float;
  a_contenders : contender list;
      (** Co-mapped actors, in the exact order the estimator folds them. *)
  a_fold : fold_step list;
      (** ⊕/⊗ lineage — one step per contender; non-empty only for the
          composability estimator. *)
  a_sandwich : sandwich option;  (** Present only for [Order m]. *)
  a_wait : float;  (** Expected waiting time [W]. *)
  a_response : float;  (** [a_exec +. a_wait]. *)
}

type app = {
  x_app : string;
  x_isolation : float;  (** Isolation period (the application alone). *)
  x_period : float;  (** Estimated period inside the use-case. *)
  x_factor : float;  (** Contention factor: [x_period /. x_isolation]. *)
  x_throughput : float;  (** [1. /. x_period]. *)
  x_margin : Margin.t option;
      (** Confidence interval around [x_period], when one was attached
          ({!with_margins}) — statistical, so excluded from {!verify}'s
          bit-identical reproduction contract. *)
  x_actors : actor list;
}

type t = {
  estimator : string;  (** Canonical estimator name. *)
  engine : string;
      (** Always ["mcm"]: periods are maximum cycle ratios of the HSDF
          expansion ({!Analysis.period_with}).  Kept on the wire so
          explain replies stay byte-identical. *)
  usecase : string list;  (** Active application names, ascending. *)
  apps : app list;
}

val compute : Analysis.estimator -> (Analysis.app * Analysis.cache) list -> t
(** Run one Figure-4 pass over exactly the given applications (the
    use-case), each paired with its {!Analysis.prepare} cache as
    {!Analysis.estimate_prepared} takes them, recording provenance along
    the way.  Every recorded number is bit-identical to what
    {!Analysis.estimate} (and the kernel path behind
    {!Analysis.estimate_prepared}) produces for the same inputs.
    [x_margin] is [None] everywhere; see {!with_margins}.
    @raise Invalid_argument as {!Analysis.period_with} when a cache was
    prepared from an application of another actor count. *)

val with_margins : t -> (string * Margin.t) list -> t
(** Attach confidence margins to the named applications (unknown names are
    ignored, apps not named keep [x_margin = None]).  Margins are
    statistical — produced by {!Admission.margin_for} or a {!Margin}
    constructor, not recomputed here — so attaching them never perturbs the
    record's reproducible numbers. *)

val verify : t -> Analysis.app list -> (unit, string) result
(** Re-derive the estimate from the provenance record and demand bit-for-bit
    agreement ([Error] names the first divergence):
    - the estimator must be a canonical name ({!Analysis.estimator_of_name})
      and the period engine ["mcm"];
    - per application: its name and isolation period are the use-case's;
    - per actor: its index is in range, and its name, processor, execution
      time and own load [p]/[mu] are the graph's, the mapping's and
      {!Analysis.loads}';
    - its waiting time follows from the recorded contender descriptors via
      the named estimator (contenders are taken from the record, not
      re-derived from the mapping), and its response time is execution
      time plus wait;
    - each period, throughput and contention factor follows from the
      application graph under the re-derived response times.
    The [apps] must be the use-case the record was computed for, in record
    order. *)

val render : t -> string
(** Human-readable explanation: one block per application with its period
    provenance, one table row per actor, contenders and bounds inline. *)
