(** Online shadow-audit of served estimates.

    The daemon answers estimate requests analytically (Eq. 4/5/9 — that is
    the point of the paper), which leaves a production question open: {e how
    wrong is the estimator right now?}  The auditor answers it continuously:
    a head-sampled fraction of served estimates is replayed through the
    discrete-event simulator ({!Desim.Engine.run}) on a dedicated background
    domain, and the signed relative period error of every application row is
    recorded into per-estimator calibration histograms plus a Page–Hinkley
    drift detector — the observability analogue of the offline [check]
    oracles.

    The serve path only pays a queue push: replays never run on worker
    domains, and a full audit queue {e drops} the sample (counted) rather
    than blocking a request.  Audit outcomes join the request journal under
    the originating trace id, and the replay spans re-establish the
    originating context, so a merged trace shows the audit work hanging off
    the request that triggered it. *)

(** Two-sided Page–Hinkley change detector over a stream of signed errors.

    Alarms when the cumulative deviation from the running mean exceeds
    [lambda] in either direction (with slack [delta] per step); on alarm the
    cumulative state resets so detection restarts, but the [flagged] bit
    stays up — drift is an operator-attention condition, not a blip. *)
module Drift : sig
  type t

  val create : ?delta:float -> ?lambda:float -> ?min_samples:int -> unit -> t
  (** Defaults: [delta = 0.005], [lambda = 0.25], [min_samples = 20]
      (no alarm before [min_samples] observations). *)

  val observe : t -> float -> bool
  (** Feed one signed error; [true] iff this observation raised an alarm. *)

  val flagged : t -> bool
  (** Whether any alarm has fired so far (sticky). *)

  val alarms : t -> int
end

type config = {
  sample_every : int;  (** Audit 1 in [N] estimate requests (head count). *)
  horizon : float;  (** Simulation horizon of the replay. *)
  queue_capacity : int;  (** Pending replays beyond this are dropped. *)
  drift_delta : float;
  drift_lambda : float;
  drift_min_samples : int;
}

val default_config : config
(** [sample_every = 64], [horizon = 50_000.], [queue_capacity = 64], and
    the {!Drift.create} defaults.  The horizon is deliberately a tenth of
    the paper's 500k-cycle evaluation setting: the audit wants a cheap,
    continuous accuracy signal, not a publication-grade data point. *)

type task = {
  digest : string;
  workload : Exp.Workload.t;
  mask : Contention.Usecase.t;
  estimator : string;  (** Canonical estimator name (the cache-key form). *)
  rows : Protocol.estimate_row list;
      (** The served rows, in {!Contention.Usecase.to_list} order — the
          same order {!Desim.Engine.run} reports results in. *)
  ctx : Obs.Span.ctx option;  (** Originating trace context, if any. *)
}

type margin_task = {
  m_digest : string;
  m_workload : Exp.Workload.t;
  m_mask : Contention.Usecase.t;
      (** The admitted population of the session, candidate included —
          the mix the margin's confidence claim is about. *)
  m_app : string;  (** The application whose margin was served. *)
  m_margin : Contention.Margin.t;
  m_ctx : Obs.Span.ctx option;
}

type t

val create :
  ?config:config ->
  registry:Obs.Metric.registry ->
  ?journal:Journal.t ->
  ?shard:string ->
  unit ->
  t
(** Spawns the background replay domain.  Metrics land in [registry]:
    [contention_serve_audit_total]/[_error] (histogram)/[_drift] (gauge)/
    [_alarms_total] per estimator label, plus [_dropped_total] and
    [_failed_total].
    @raise Invalid_argument unless [config.horizon] is finite and positive:
    a replay with a NaN or infinite horizon would never finish. *)

val sampled : t -> bool
(** Head-based 1-in-[sample_every] counter; call once per estimate served
    and submit iff [true]. *)

val submit : t -> task -> bool
(** Enqueue a replay; [false] (and a drop count) when the queue is full or
    the auditor is stopping.  Never blocks. *)

val submit_margin : t -> margin_task -> bool
(** Enqueue a margin coverage check: the population is simulated and the
    application's observed average period tested against the served bounds.
    One replay is one Bernoulli trial at the stated confidence — the
    aggregate miss rate ([margin_missed / margin_checked], exposed in
    {!stats} and as [contention_serve_audit_margin_total] /
    [_margin_missed_total]) is the signal.  Same queue and drop policy as
    {!submit}. *)

val stats : t -> Protocol.audit_stats
(** Snapshot for the [stats] reply. *)

val drain : t -> unit
(** Block until the queue is empty and no replay is in flight — test and
    shutdown aid; new submissions may still arrive after it returns. *)

val stop : t -> unit
(** Finish the queued replays, then join the domain.  Idempotent. *)
