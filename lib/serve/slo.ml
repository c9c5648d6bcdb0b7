(* Rolling latency-SLO accounting over per-second ring buckets, plus the
   ring of recent latencies the percentiles come from.

   3600 buckets cover the longest window (1 h).  Each bucket carries the
   absolute second it was last written; a stale bucket is reset lazily on
   the next write and skipped by reads, so there is no sweeper thread and
   no wipe loop on the hot path.  All state lives under one mutex —
   recording is a handful of stores, far off the serve critical path's
   scale; a snapshot sorts its copy of the latency ring after releasing
   it. *)

let ring_size = 4096

type t = {
  objective_ms : float;
  target : float;
  now_s : unit -> int;
  mutex : Mutex.t;
  total : int array; (* requests finished in that second *)
  bad : int array; (* of those, over-objective or shed *)
  stamp : int array; (* absolute second the bucket belongs to *)
  latencies : float array; (* seconds; the most recent [ring_size] *)
  mutable samples : int; (* latencies recorded; ring index = samples mod size *)
  mutable max_s : float;
}

let buckets = 3600

(* Seconds on the monotonic clock: a wall-clock step must neither skip
   buckets nor empty a window. *)
let default_now () = Int64.to_int (Int64.div (Obs.Clock.now_ns ()) 1_000_000_000L)

let create ?(now_s = default_now) ~objective_ms ~target () =
  {
    objective_ms;
    target;
    now_s;
    mutex = Mutex.create ();
    total = Array.make buckets 0;
    bad = Array.make buckets 0;
    stamp = Array.make buckets (-1);
    latencies = Array.make ring_size 0.;
    samples = 0;
    max_s = 0.;
  }

let touch t sec =
  let idx = sec mod buckets in
  if t.stamp.(idx) <> sec then begin
    t.stamp.(idx) <- sec;
    t.total.(idx) <- 0;
    t.bad.(idx) <- 0
  end;
  idx

let record t ~latency_s =
  let sec = t.now_s () in
  Mutex.lock t.mutex;
  let idx = touch t sec in
  t.total.(idx) <- t.total.(idx) + 1;
  if latency_s *. 1000. > t.objective_ms then t.bad.(idx) <- t.bad.(idx) + 1;
  t.latencies.(t.samples mod ring_size) <- latency_s;
  t.samples <- t.samples + 1;
  t.max_s <- Float.max t.max_s latency_s;
  Mutex.unlock t.mutex

let record_bad t =
  let sec = t.now_s () in
  Mutex.lock t.mutex;
  let idx = touch t sec in
  t.total.(idx) <- t.total.(idx) + 1;
  t.bad.(idx) <- t.bad.(idx) + 1;
  Mutex.unlock t.mutex

(* Burn rate over the trailing [window] seconds ending now: the fraction
   of requests out of objective, divided by the error budget (1 - target).
   1.0 means the budget is being spent exactly as fast as it accrues;
   above 1.0 the objective is being missed.  An empty window burns 0. *)
let burn_locked t ~window ~sec =
  let total = ref 0 and bad = ref 0 in
  for i = 0 to buckets - 1 do
    let s = t.stamp.(i) in
    if s > sec - window && s <= sec then begin
      total := !total + t.total.(i);
      bad := !bad + t.bad.(i)
    end
  done;
  if !total = 0 then 0.
  else
    let budget = Float.max (1. -. t.target) 1e-9 in
    float_of_int !bad /. float_of_int !total /. budget

type snapshot = {
  objective_ms : float;
  target : float;
  burn_1m : float;
  burn_1h : float;
  latency_p50_us : float;
  latency_p90_us : float;
  latency_p99_us : float;
  latency_max_us : float;
}

let burn_rates t =
  let sec = t.now_s () in
  Mutex.lock t.mutex;
  let burn_1m = burn_locked t ~window:60 ~sec in
  let burn_1h = burn_locked t ~window:3600 ~sec in
  Mutex.unlock t.mutex;
  (burn_1m, burn_1h)

let snapshot t =
  let burn_1m, burn_1h = burn_rates t in
  Mutex.lock t.mutex;
  let recent = Array.sub t.latencies 0 (Int.min t.samples ring_size) in
  let max_s = t.max_s in
  Mutex.unlock t.mutex;
  Array.stable_sort Float.compare recent;
  let pct q =
    if Array.length recent = 0 then 0.
    else 1e6 *. Repro_stats.Stats.percentile_sorted q recent
  in
  {
    objective_ms = t.objective_ms;
    target = t.target;
    burn_1m;
    burn_1h;
    latency_p50_us = pct 50.;
    latency_p90_us = pct 90.;
    latency_p99_us = pct 99.;
    latency_max_us = 1e6 *. max_s;
  }
