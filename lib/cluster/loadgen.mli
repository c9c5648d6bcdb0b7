(** Open-loop load harness for a serve cluster.

    Open loop means the arrival schedule is fixed {e before} the run
    (Poisson or uniform gaps at a target rate) and never slows down because
    the server is slow — unlike a closed loop, which hides overload by
    waiting for replies before sending more.  Latency is measured from the
    {e scheduled} arrival, not the actual send, so queueing delay inside
    the harness counts against the server (the standard correction for
    coordinated omission).

    The working set is a fixed array of uploaded workload digests with
    Zipf-skewed popularity: [skew = 0] is uniform, [skew ≈ 1] gives the
    hot-key traffic that exercises estimate-cache hits and hot-entry
    forwarding.  Schedule and digest choices are precomputed from the seed,
    so two runs at the same seed issue the identical request sequence
    regardless of thread interleaving. *)

type arrival = Poisson | Uniform

type config = {
  rate : float;  (** Target aggregate request rate, req/s. *)
  duration_s : float;
  concurrency : int;  (** Worker threads issuing requests. *)
  arrival : arrival;
  skew : float;  (** Zipf exponent over the working set; 0 = uniform. *)
  seed : int;
  estimator : Contention.Analysis.estimator;
  trace_sample : int;
      (** When positive, every request roots a fresh trace context carried
          to the shards on the wire, with the head-based journal-sampling
          bit set on 1 in [trace_sample] requests.  [0] (the default)
          issues context-free requests. *)
}

type shard_stats = {
  s_ok : int;
  s_shed : int;
  s_errors : int;
  s_p50_ms : float;
  s_p99_ms : float;
}
(** One shard's share of the run, attributed to the shard that actually
    answered (the failover peer for retried transport failures). *)

type progress = {
  elapsed_s : float;
  offered_so_far : int;  (** Scheduled arrivals at or before [elapsed_s]. *)
  completed : int;  (** [ok + shed + errors] so far. *)
  ok_so_far : int;
  shed_so_far : int;
  errors_so_far : int;
  rolling_p50_ms : float;  (** Over all served requests so far. *)
  rolling_p99_ms : float;
}

type report = {
  target_rps : float;
  arrival : arrival;
  offered : int;  (** Scheduled (= issued) requests. *)
  ok : int;
  shed : int;  (** Backpressure verdicts — the server saying "later". *)
  errors : int;  (** Transport and protocol failures. *)
  wall_s : float;
  achieved_rps : float;  (** [ok] over wall time. *)
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;  (** Latency of served requests, scheduled-arrival based. *)
  per_shard : (string * shard_stats) list;  (** Sorted by shard name. *)
}

val run :
  ?registry:Obs.Metric.registry ->
  ?on_progress:(progress -> unit) ->
  config ->
  router:Router.t ->
  digests:string array ->
  report
(** Drive the cluster through [router] over the given working set.  Each
    served request lands in the
    [contention_loadgen_latency_seconds] histogram and every outcome bumps
    [contention_loadgen_requests_total{outcome=...}] in [registry]
    (default {!Obs.Metric.default}), so a long-running harness can be
    scraped mid-flight.

    [on_progress], when given, is called about once per second from a
    dedicated monitor thread with a racy-but-safe snapshot of the run so
    far — the CLI turns it into a live progress line.
    @raise Invalid_argument on an empty digest array, [rate <= 0],
    [duration_s <= 0] or [concurrency < 1]. *)

val report_to_json : report -> Serve.Json.t
(** A [{"schema": "contention-bench/1", ...}] document with the run under a
    ["loadgen"] key: what [contention loadgen --json] writes. *)

val render : report -> string
(** Human-readable summary table. *)

val render_per_shard : report -> string
(** Per-shard outcome and latency breakdown as a table. *)

val progress_line : progress -> string
(** One-line rendering of a {!progress} snapshot. *)
