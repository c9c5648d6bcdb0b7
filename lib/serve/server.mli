(** The `contention serve` daemon: an online resource manager answering
    estimate/admit queries analytically over a newline-delimited JSON
    protocol (see {!Protocol}).

    Connections are accepted on a TCP socket (port [0] picks an ephemeral
    port — used by the integration tests) and/or a Unix-domain socket, and
    handed to a fixed pool of worker domains modelled on {!Exp.Pool}: each
    connection is served by one worker, which stays with it until the peer
    closes it, so [jobs] idle connections hold every worker and later
    connections wait in the accept queue.  Workloads live, prepared, in a
    content-addressed {!Store}; estimates are memoised in an {!Lru} cache
    keyed by [(workload digest, use-case mask, estimator name)], each entry
    holding its rows and its encoded reply body
    ({!Protocol.estimate_reply_body}), so a hit writes stored bytes and
    encodes nothing; admission state is a named {!Contention.Admission.t}
    per session, shared across connections so a manager survives
    reconnects.

    {!stop} is graceful: listeners close first, in-flight requests finish
    and get their reply, idle connections are torn down (their read side is
    shut down, which the worker sees as end-of-stream), accepted-but-unserved
    connections are closed, and the domains are joined. *)

type config = {
  host : string;  (** TCP bind address. *)
  port : int option;  (** [Some 0] = ephemeral; [None] = no TCP listener. *)
  unix_path : string option;  (** Unix-domain socket path, unlinked on stop. *)
  jobs : int option;  (** Worker domains; default {!Exp.Pool.default_jobs}. *)
  cache_capacity : int;  (** Estimate-cache entries. *)
  max_line : int;  (** Maximum request frame in bytes. *)
  max_queue : int;
      (** Accept-queue bound: a connection arriving when this many accepted
          connections are already waiting for a worker is answered with one
          [{"shed": ...}] frame and closed — explicit backpressure instead
          of unbounded queueing.  [0] disables the bound. *)
  hot_threshold : int;
      (** Estimate requests a cache entry serves while cached before it
          counts as hot and the [on_hot] hook (see {!start}) fires.  [0]
          disables hot tracking. *)
  journal_path : string option;
      (** When set, sampled per-request records are appended there as JSONL
          (see {!Journal}).  [None] disables the journal entirely. *)
  journal_sample : int;  (** Fallback 1-in-N rate for context-free requests. *)
  journal_max_bytes : int;  (** Journal rotation threshold; [<= 0] = never. *)
  slo_objective_ms : float;
      (** Latency objective: a request finishing slower burns error budget
          (see {!Slo}). *)
  slo_target : float;  (** Availability target, e.g. [0.999]. *)
  shard : string option;
      (** This server's shard label, stamped into journal records so a
          cluster's journals can be told apart after collection. *)
  audit_sample : int;
      (** Shadow-audit 1 in [N] served estimates through the simulator on a
          background domain (see {!Audit}).  [0] disables auditing. *)
  audit_horizon : float;  (** Simulation horizon of audit replays. *)
  audit_drift_delta : float;
      (** Page–Hinkley per-step slack: mean shifts below this magnitude
          never accumulate toward an alarm (see {!Audit.Drift}). *)
  audit_drift_lambda : float;
      (** Page–Hinkley alarm threshold on the cumulative deviation.  Scale
          it to the error spread of the served workload population: a
          multi-workload mix needs a larger [lambda] than the default,
          which is tuned for a stream of near-identical errors. *)
}

val default_config : config
(** 127.0.0.1, TCP port 4557, no Unix socket, default jobs, 256 cache
    entries, 8 MiB frames, 1024-deep accept queue, hot tracking off, no
    journal (1-in-16 sampling, 8 MiB rotation when enabled), 50 ms / 99.9%
    SLO, no shard label, auditing off ({!Audit.default_config} horizon). *)

type hot_entry = {
  hot_digest : string;
  hot_mask : Contention.Usecase.t;
  hot_estimator : string;  (** Canonical estimator name. *)
  hot_rows : Protocol.estimate_row list;
}
(** A cache entry whose request count just crossed [hot_threshold] — exactly
    what a peer needs to install it via [cache-put]. *)

type t

val start : ?on_hot:(hot_entry -> unit) -> ?config:config -> unit -> t
(** Bind, listen and spawn the accept/worker domains.  [SIGPIPE] is set to
    ignore (a dead peer must surface as [EPIPE] on the worker, not kill the
    daemon).

    [on_hot] fires at most once per cache residency (a [cache-put] that
    replaces a cached entry's rows keeps its count), from the worker domain
    serving the request that brings the entry's count to
    [config.hot_threshold]; exceptions it raises are swallowed.  The
    cluster layer uses it to replicate hot
    estimate-cache entries to peers ({!Cluster} lives above {!Serve}, so
    the wiring happens in the binary, not here).
    @raise Invalid_argument, naming the field and before anything is bound,
    if no listener is configured, [cache_capacity < 1], [jobs = Some j]
    with [j < 1], [slo_objective_ms], [audit_horizon] or
    [audit_drift_lambda] is not finite and positive, [slo_target] is not in
    (0, 1), or [audit_drift_delta] is not finite and non-negative.
    @raise Sys_error if the journal cannot be opened (it is opened before
    any socket is bound).
    @raise Unix.Unix_error if binding fails.  A start that raises leaves
    nothing held: no open socket, no socket file and no open journal. *)

val tcp_port : t -> int option
(** The actually bound TCP port (resolves an ephemeral request). *)

val shutdown_requested : t -> bool
(** True once a client issued the [shutdown] command; the owner of the
    handle is expected to react by calling {!stop}. *)

val handle_line : t -> string -> string
(** One request line through the exact parse-and-dispatch path a connection
    worker uses, returning the serialized reply line (no trailing newline).
    Total: malformed JSON, unknown commands and dispatch exceptions all come
    back as [{"error": ...}] envelopes.  This is the in-process fuzzing entry
    used by {!Check.Wirefuzz} — arbitrary bytes in, one JSON reply out,
    never an exception. *)

val audit : t -> Audit.t option
(** The shadow auditor, when [audit_sample > 0] — tests use it to
    {!Audit.drain} before asserting on audit counters. *)

val metrics_registry : t -> Obs.Metric.registry
(** The server's own metric registry and its only set of counts:
    per-command request counters and latency histograms, connections,
    cache hits/misses, sheds, admission verdicts, releases, served margin
    widths, pool and SLO gauges, and the {!Audit} series.  The [metrics]
    protocol command renders it with {!Obs.Prometheus.expose}; the [stats]
    reply reads the same handles, and takes only its latency percentiles
    and maximum from {!Slo}.  Each server owns a private registry so
    co-hosted instances (as in the tests) do not mix series. *)

val stop : t -> unit
(** Graceful shutdown as described above.  Idempotent. *)

val run_until_stopped : ?poll_interval:float -> ?should_stop:(unit -> bool) -> t -> unit
(** Block until [should_stop ()] (e.g. a SIGINT flag) or a client's
    [shutdown] command, then {!stop}.  [poll_interval] defaults to 0.1 s. *)
