(* The serve daemon's latency percentiles, pinned deterministically.

   Serve.Slo keeps every request's latency in a 4096-entry ring of the
   most recent samples and computes percentiles with
   Repro_stats.Stats.percentile_sorted (linear interpolation at rank
   q/100 * (n-1)), so every expected value below is exact and the checks
   use a tight epsilon.  Request counts and the mean latency come from the
   server's metric registry (test_serve.ml, "metrics"). *)

let eps = 1e-9

let check = Fixtures.check_float ~eps

let slo () = Serve.Slo.create ~objective_ms:50. ~target:0.999 ()

let test_empty () =
  let s = Serve.Slo.snapshot (slo ()) in
  check "p50" 0. s.latency_p50_us;
  check "p90" 0. s.latency_p90_us;
  check "p99" 0. s.latency_p99_us;
  check "max" 0. s.latency_max_us

let test_single_sample () =
  let m = slo () in
  Serve.Slo.record m ~latency_s:250e-6;
  let s = Serve.Slo.snapshot m in
  (* With a single sample every percentile is that sample. *)
  check "p50" 250. s.latency_p50_us;
  check "p90" 250. s.latency_p90_us;
  check "p99" 250. s.latency_p99_us;
  check "max" 250. s.latency_max_us

(* 1..1000 microseconds, in a shuffled order (percentiles must not depend
   on arrival order): rank q/100 * 999 interpolates to
   p50 = 500.5, p90 = 900.1, p99 = 990.01. *)
let test_known_sequence () =
  let m = slo () in
  let order = Array.init 1000 (fun i -> i + 1) in
  Sdfgen.Rng.shuffle (Sdfgen.Rng.create 42) order;
  Array.iter
    (fun i -> Serve.Slo.record m ~latency_s:(float_of_int i *. 1e-6))
    order;
  let s = Serve.Slo.snapshot m in
  check "p50" 500.5 s.latency_p50_us;
  check "p90" 900.1 s.latency_p90_us;
  check "p99" 990.01 s.latency_p99_us;
  check "max" 1000. s.latency_max_us

(* Overflow the 4096-entry ring with 5000 ascending samples: the ring
   keeps the most recent 4096 (905..5000 us), so percentiles shift up while
   the max still covers all 5000. *)
let test_reservoir_cap () =
  let m = slo () in
  for i = 1 to 5000 do
    Serve.Slo.record m ~latency_s:(float_of_int i *. 1e-6)
  done;
  let s = Serve.Slo.snapshot m in
  check "max survives eviction" 5000. s.latency_max_us;
  (* Ring holds 905..5000: p50 rank = 0.5 * 4095 = 2047.5 between 2952 and
     2953. *)
  check "p50 over the retained window" 2952.5 s.latency_p50_us;
  (* p99 rank = 0.99 * 4095 = 4054.05 between 4959 and 4960. *)
  check "p99 over the retained window" 4959.05 s.latency_p99_us

let suite =
  [
    Alcotest.test_case "empty snapshot" `Quick test_empty;
    Alcotest.test_case "single sample" `Quick test_single_sample;
    Alcotest.test_case "1..1000 pins p50/p90/p99" `Quick test_known_sequence;
    Alcotest.test_case "reservoir cap" `Quick test_reservoir_cap;
  ]
