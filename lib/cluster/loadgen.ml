module Rng = Sdfgen.Rng

type arrival = Poisson | Uniform

type config = {
  rate : float;
  duration_s : float;
  concurrency : int;
  arrival : arrival;
  skew : float;
  seed : int;
  estimator : Contention.Analysis.estimator;
  trace_sample : int;
}

type shard_stats = {
  s_ok : int;
  s_shed : int;
  s_errors : int;
  s_p50_ms : float;
  s_p99_ms : float;
}

type progress = {
  elapsed_s : float;
  offered_so_far : int;
  completed : int;
  ok_so_far : int;
  shed_so_far : int;
  errors_so_far : int;
  rolling_p50_ms : float;
  rolling_p99_ms : float;
}

type report = {
  target_rps : float;
  arrival : arrival;
  offered : int;
  ok : int;
  shed : int;
  errors : int;
  wall_s : float;
  achieved_rps : float;
  mean_ms : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  per_shard : (string * shard_stats) list;
}

(* Arrival offsets in seconds from the run's start, one per request. *)
let schedule cfg rng =
  let n = Int.max 1 (int_of_float (cfg.rate *. cfg.duration_s)) in
  let times = Array.make n 0. in
  (match cfg.arrival with
  | Uniform ->
      for i = 0 to n - 1 do
        times.(i) <- float_of_int i /. cfg.rate
      done
  | Poisson ->
      (* Exponential gaps via inverse transform; log1p keeps u -> 0 exact. *)
      let t = ref 0. in
      for i = 0 to n - 1 do
        t := !t +. (-.Float.log1p (-.Rng.float rng 1.) /. cfg.rate);
        times.(i) <- !t
      done);
  times

(* Zipf CDF over ranks 0..k-1 with exponent [skew]; request i draws its
   digest by inverting a uniform sample against it. *)
let zipf_cdf ~skew k =
  let weights =
    Array.init k (fun i -> 1. /. Float.pow (float_of_int (i + 1)) skew)
  in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make k 0. in
  let acc = ref 0. in
  for i = 0 to k - 1 do
    acc := !acc +. (weights.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(k - 1) <- 1.;
  cdf

let pick_rank cdf u =
  let n = Array.length cdf in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (n - 1)

type accum = {
  mutable a_ok : int;
  mutable a_shed : int;
  mutable a_errors : int;
  mutable a_latencies : float list;  (* seconds, served requests only *)
  a_shards : (string, saccum) Hashtbl.t;  (* outcome/latency per shard *)
}

and saccum = {
  mutable sa_ok : int;
  mutable sa_shed : int;
  mutable sa_errors : int;
  mutable sa_latencies : float list;
}

let saccum_for acc shard =
  match Hashtbl.find_opt acc.a_shards shard with
  | Some s -> s
  | None ->
      let s = { sa_ok = 0; sa_shed = 0; sa_errors = 0; sa_latencies = [] } in
      Hashtbl.add acc.a_shards shard s;
      s

(* How many scheduled arrivals fall at or before [elapsed] — the offered
   count a progress line reports.  [times] is nondecreasing for both
   arrival processes, so a binary search gives the answer. *)
let offered_before times elapsed =
  let n = Array.length times in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if times.(mid) <= elapsed then search (mid + 1) hi else search lo mid
  in
  search 0 n

let run ?(registry = Obs.Metric.default) ?on_progress cfg ~router ~digests =
  if Array.length digests = 0 then
    invalid_arg "Cluster.Loadgen.run: empty working set";
  if cfg.rate <= 0. then invalid_arg "Cluster.Loadgen.run: rate <= 0";
  if cfg.duration_s <= 0. then invalid_arg "Cluster.Loadgen.run: duration <= 0";
  if cfg.concurrency < 1 then invalid_arg "Cluster.Loadgen.run: concurrency < 1";
  let h_latency =
    Obs.Metric.Histogram.v ~registry
      ~help:"Served-request latency from scheduled arrival."
      "contention_loadgen_latency_seconds"
  in
  let count outcome =
    Obs.Metric.Counter.inc
      (Obs.Metric.Counter.v ~registry
         ~help:"Loadgen requests by outcome."
         ~labels:[ ("outcome", outcome) ]
         "contention_loadgen_requests_total")
  in
  let rng = Rng.create cfg.seed in
  let times = schedule cfg (Rng.split rng) in
  let n = Array.length times in
  let cdf = zipf_cdf ~skew:cfg.skew (Array.length digests) in
  let choice_rng = Rng.split rng in
  let choices =
    Array.init n (fun _ -> pick_rank cdf (Rng.float choice_rng 1.))
  in
  let next = Atomic.make 0 in
  let accums =
    Array.init cfg.concurrency (fun _ ->
        {
          a_ok = 0;
          a_shed = 0;
          a_errors = 0;
          a_latencies = [];
          a_shards = Hashtbl.create 4;
        })
  in
  let t0 = Obs.Clock.now_ns () in
  let worker acc =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let target_s = times.(i) in
        let now_s = Obs.Clock.elapsed_s ~since:t0 in
        if target_s > now_s then Unix.sleepf (target_s -. now_s);
        let issue () =
          Obs.Span.with_ ~name:"client.estimate"
            ~args:(fun () -> [ ("request", string_of_int i) ])
            (fun () ->
              Router.estimate_routed router ~digest:digests.(choices.(i))
                ~estimator:cfg.estimator ())
        in
        let outcome, shard =
          (* Every request roots its own trace; the sampled bit (1 in
             [trace_sample]) is the head-based journal decision the shards
             honour.  [trace_sample = 0] disables contexts entirely. *)
          if cfg.trace_sample > 0 then
            Obs.Span.with_context
              (Obs.Span.new_trace ~sampled:(i mod cfg.trace_sample = 0) ())
              issue
          else issue ()
        in
        let latency = Obs.Clock.elapsed_s ~since:t0 -. target_s in
        let sa = saccum_for acc shard in
        (match outcome with
        | Router.Served _ ->
            acc.a_ok <- acc.a_ok + 1;
            acc.a_latencies <- latency :: acc.a_latencies;
            sa.sa_ok <- sa.sa_ok + 1;
            sa.sa_latencies <- latency :: sa.sa_latencies;
            Obs.Metric.Histogram.observe h_latency latency;
            count "ok"
        | Router.Shed _ ->
            acc.a_shed <- acc.a_shed + 1;
            sa.sa_shed <- sa.sa_shed + 1;
            count "shed"
        | Router.Failed _ ->
            acc.a_errors <- acc.a_errors + 1;
            sa.sa_errors <- sa.sa_errors + 1;
            count "error");
        loop ()
      end
    in
    loop ()
  in
  let threads =
    Array.to_list
      (Array.map (fun acc -> Thread.create worker acc) accums)
  in
  (* The optional progress monitor reads the worker accumulators racily:
     the counters are plain ints (a stale read is just a slightly old
     number) and the latency lists are immutable spines, so a snapshot of
     the head pointer is always a valid list. *)
  let done_flag = Atomic.make false in
  let monitor =
    Option.map
      (fun report ->
        Thread.create
          (fun () ->
            while not (Atomic.get done_flag) do
              Unix.sleepf 1.0;
              if not (Atomic.get done_flag) then begin
                let elapsed_s = Obs.Clock.elapsed_s ~since:t0 in
                let ok = Array.fold_left (fun s a -> s + a.a_ok) 0 accums in
                let shed = Array.fold_left (fun s a -> s + a.a_shed) 0 accums in
                let errors =
                  Array.fold_left (fun s a -> s + a.a_errors) 0 accums
                in
                let lats =
                  Array.fold_left
                    (fun l a -> List.rev_append a.a_latencies l)
                    [] accums
                in
                let pct q =
                  if lats = [] then 0.
                  else 1e3 *. Repro_stats.Stats.percentile q lats
                in
                report
                  {
                    elapsed_s;
                    offered_so_far = offered_before times elapsed_s;
                    completed = ok + shed + errors;
                    ok_so_far = ok;
                    shed_so_far = shed;
                    errors_so_far = errors;
                    rolling_p50_ms = pct 50.;
                    rolling_p99_ms = pct 99.;
                  }
              end
            done)
          ())
      on_progress
  in
  List.iter Thread.join threads;
  Atomic.set done_flag true;
  Option.iter Thread.join monitor;
  let wall_s = Obs.Clock.elapsed_s ~since:t0 in
  let ok = Array.fold_left (fun s a -> s + a.a_ok) 0 accums in
  let shed = Array.fold_left (fun s a -> s + a.a_shed) 0 accums in
  let errors = Array.fold_left (fun s a -> s + a.a_errors) 0 accums in
  let latencies =
    Array.fold_left (fun l a -> List.rev_append a.a_latencies l) [] accums
  in
  let ms x = 1e3 *. x in
  let pct q =
    if latencies = [] then 0.
    else ms (Repro_stats.Stats.percentile q latencies)
  in
  let per_shard =
    (* Merge the workers' per-shard tallies; shards sorted by name so the
       report is deterministic for a fixed outcome multiset. *)
    let merged : (string, saccum) Hashtbl.t = Hashtbl.create 8 in
    Array.iter
      (fun acc ->
        Hashtbl.iter
          (fun shard (sa : saccum) ->
            let m =
              match Hashtbl.find_opt merged shard with
              | Some m -> m
              | None ->
                  let m =
                    { sa_ok = 0; sa_shed = 0; sa_errors = 0; sa_latencies = [] }
                  in
                  Hashtbl.add merged shard m;
                  m
            in
            m.sa_ok <- m.sa_ok + sa.sa_ok;
            m.sa_shed <- m.sa_shed + sa.sa_shed;
            m.sa_errors <- m.sa_errors + sa.sa_errors;
            m.sa_latencies <- List.rev_append sa.sa_latencies m.sa_latencies)
          acc.a_shards)
      accums;
    Hashtbl.fold (fun shard m l -> (shard, m) :: l) merged []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (shard, (m : saccum)) ->
           let spct q =
             if m.sa_latencies = [] then 0.
             else ms (Repro_stats.Stats.percentile q m.sa_latencies)
           in
           ( shard,
             {
               s_ok = m.sa_ok;
               s_shed = m.sa_shed;
               s_errors = m.sa_errors;
               s_p50_ms = spct 50.;
               s_p99_ms = spct 99.;
             } ))
  in
  {
    target_rps = cfg.rate;
    arrival = cfg.arrival;
    offered = n;
    ok;
    shed;
    errors;
    wall_s;
    achieved_rps = (if wall_s > 0. then float_of_int ok /. wall_s else 0.);
    mean_ms =
      (if latencies = [] then 0.
       else ms (List.fold_left ( +. ) 0. latencies /. float_of_int ok));
    p50_ms = pct 50.;
    p90_ms = pct 90.;
    p99_ms = pct 99.;
    max_ms = (if latencies = [] then 0. else ms (List.fold_left Float.max 0. latencies));
    per_shard;
  }

let arrival_name = function Poisson -> "poisson" | Uniform -> "uniform"

let report_to_json r =
  let open Serve.Json in
  let rev =
    match Sys.getenv_opt "CONTENTION_REV" with Some r -> r | None -> "dev"
  in
  Obj
    [
      ("schema", Str "contention-bench/1");
      ("rev", Str rev);
      ( "loadgen",
        Obj
          [
            ("target_rps", Num r.target_rps);
            ("arrival", Str (arrival_name r.arrival));
            ("offered", Num (float_of_int r.offered));
            ("ok", Num (float_of_int r.ok));
            ("shed", Num (float_of_int r.shed));
            ("errors", Num (float_of_int r.errors));
            ("wall_s", Num r.wall_s);
            ("achieved_rps", Num r.achieved_rps);
            ( "latency_ms",
              Obj
                [
                  ("mean", Num r.mean_ms);
                  ("p50", Num r.p50_ms);
                  ("p90", Num r.p90_ms);
                  ("p99", Num r.p99_ms);
                  ("max", Num r.max_ms);
                ] );
            ( "per_shard",
              Obj
                (List.map
                   (fun (shard, s) ->
                     ( shard,
                       Obj
                         [
                           ("ok", Num (float_of_int s.s_ok));
                           ("shed", Num (float_of_int s.s_shed));
                           ("errors", Num (float_of_int s.s_errors));
                           ("p50_ms", Num s.s_p50_ms);
                           ("p99_ms", Num s.s_p99_ms);
                         ] ))
                   r.per_shard) );
          ] );
    ]

let render r =
  Repro_stats.Table.render
    ~header:[ "Metric"; "Value" ]
    [
      [ "target req/s"; Printf.sprintf "%.1f" r.target_rps ];
      [ "arrivals"; arrival_name r.arrival ];
      [ "offered"; string_of_int r.offered ];
      [ "ok"; string_of_int r.ok ];
      [ "shed"; string_of_int r.shed ];
      [ "errors"; string_of_int r.errors ];
      [ "wall s"; Printf.sprintf "%.2f" r.wall_s ];
      [ "achieved req/s"; Printf.sprintf "%.1f" r.achieved_rps ];
      [ "latency mean ms"; Printf.sprintf "%.3f" r.mean_ms ];
      [ "latency p50 ms"; Printf.sprintf "%.3f" r.p50_ms ];
      [ "latency p90 ms"; Printf.sprintf "%.3f" r.p90_ms ];
      [ "latency p99 ms"; Printf.sprintf "%.3f" r.p99_ms ];
      [ "latency max ms"; Printf.sprintf "%.3f" r.max_ms ];
    ]

let render_per_shard r =
  Repro_stats.Table.render
    ~header:[ "Shard"; "ok"; "shed"; "errors"; "p50 ms"; "p99 ms" ]
    (List.map
       (fun (shard, s) ->
         [
           shard;
           string_of_int s.s_ok;
           string_of_int s.s_shed;
           string_of_int s.s_errors;
           Printf.sprintf "%.3f" s.s_p50_ms;
           Printf.sprintf "%.3f" s.s_p99_ms;
         ])
       r.per_shard)

let progress_line p =
  Printf.sprintf
    "[%6.1fs] offered %d  completed %d  ok %d  shed %d  errors %d  p50 %.2fms  p99 %.2fms"
    p.elapsed_s p.offered_so_far p.completed p.ok_so_far p.shed_so_far
    p.errors_so_far p.rolling_p50_ms p.rolling_p99_ms
