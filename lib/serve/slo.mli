(** Rolling latency-SLO burn-rate accounting.

    The server defines one service-level objective — "a request completes
    within [objective_ms], [target] of the time" — and this module tracks
    how fast the error budget (the allowed [1 - target] fraction of slow
    or shed requests) is being spent, over two trailing windows in the
    style of multi-window burn-rate alerting: a fast 1-minute window that
    reacts to incidents and a slow 1-hour window that ignores blips.

    Burn rate reads as a multiple of sustainable spend: [1.0] consumes the
    budget exactly as fast as it accrues, [> 1.0] is on track to violate
    the SLO, [0.] is a clean (or empty) window.

    Every request's latency passes through here, so the latency
    percentiles of the [stats] reply come from here too: a ring of the
    4,096 most recent latencies (large enough for stable p50/p90/p99,
    bounded so a long-lived daemon cannot grow without limit) and the
    running maximum over all requests.

    Implementation: 3600 per-second ring buckets, lazily invalidated by an
    absolute-second stamp — no sweeper thread, O(1) record, O(3600) read.
    Thread-safe. *)

type t

val create : ?now_s:(unit -> int) -> objective_ms:float -> target:float -> unit -> t
(** [now_s] (default: whole seconds of {!Obs.Clock.now_ns}, so wall-clock
    steps move no window) is injectable so tests can drive the windows
    deterministically.  [target] is clamped away from [1.] only in the
    burn computation (budget floor [1e-9]), never stored modified. *)

val record : t -> latency_s:float -> unit
(** Count one finished request; it burns budget iff
    [latency_s *. 1000. > objective_ms].  The latency also enters the ring
    and the running maximum. *)

val record_bad : t -> unit
(** Count one request as burning budget regardless of latency — sheds and
    transport-level failures never met the objective by definition. *)

type snapshot = {
  objective_ms : float;
  target : float;
  burn_1m : float;
  burn_1h : float;
  latency_p50_us : float;
  latency_p90_us : float;
  latency_p99_us : float;
      (** Percentiles over the ring ({!Repro_stats.Stats.percentile}). *)
  latency_max_us : float;  (** Over every recorded request. *)
}

val snapshot : t -> snapshot
(** Copies the ring under the lock and sorts the copy once after releasing
    it.  Latency fields are [0.] before the first {!record}. *)

val burn_rates : t -> float * float
(** [(burn_1m, burn_1h)] of {!snapshot}, without copying or sorting the
    latency ring. *)
