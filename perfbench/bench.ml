(* The repository benchmark: one workload per process, closed loop, one
   caller.  [run.py] in this directory builds this executable and is the
   command to use; README.md describes the workloads and the metrics.

     bench.exe --workload sweep|serve|admit --seed N --seconds S --trace 0|1
               [--reference FILE]
     bench.exe --write-reference FILE

   A run does a fixed amount of work: [S] seconds' worth of ops at the
   workload's nominal rate, in equal windows.  An untraced run (--trace 0)
   sets its workload up five times (setup_s is the median), runs the
   windows and prints the end-to-end metrics.  A traced run (--trace 1)
   runs half the windows untraced, then replays exactly those ops on a
   fresh set-up, timing the calls into each layer's public functions from
   the benchmark's own code, and prints the per-layer metrics.  Output
   checks run outside the op timers; the last stdout line is the result
   object (metric name to value; run.py adds the units), and a failed
   check makes the exit code non-zero. *)

let horizon = 500_000.

(* ------------------------------------------------------------------ *)
(* Clock, samples, host                                                *)

let now = Obs.Clock.now_ns
let ns t0 t1 = Int64.to_float (Int64.sub t1 t0)

let median a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile a q =
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let rank = int_of_float (Float.ceil (q *. float_of_int (Array.length a))) in
  sorted.(Int.max 0 (Int.min (Array.length a - 1) (rank - 1)))

(* A fixed loop of integer and cache work that allocates nothing, so its
   time does not depend on the program's heap or its number of domains.
   It is timed before every window of a run and around every set-up: a
   slow host shows in it as well as in the workload, a regression only in
   the workload. *)
let reference_table = Array.init 16384 (fun i -> (i * 2654435761) land 0xffff)

let reference_loop_ms () =
  let t0 = now () in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 3_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    acc := !acc + reference_table.(!x land 16383)
  done;
  ignore (Sys.opaque_identity !acc);
  ns t0 (now ()) /. 1e6

(* The reference loop's time on a quiet 2-core x86-64 host.  Every timed
   end-to-end metric is scaled by [ref_nominal_ms] over the reference time
   measured next to it, i.e. reported at that host's speed. *)
let ref_nominal_ms = 12.5

(* Fastest of the reference times taken around a timed stretch: a stall of
   the process only ever makes the loop slower. *)
let speed_factor refs = ref_nominal_ms /. List.fold_left Float.min Float.infinity refs

(* A numeric field of /proc/self/status, e.g. VmHWM (kB) or Threads. *)
let proc_status field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line -> (
            match Scanf.sscanf line "%s@: %d" (fun k v -> (k, v)) with
            | k, v when k = field -> v
            | _ | (exception _) -> go ())
      in
      let v = go () in
      close_in ic;
      v

type gc_mark = { words : float; minors : int; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { words = Gc.minor_words (); minors = s.minor_collections; majors = s.major_collections }

(* Five fresh set-ups, each between two reference loops; the last one is
   kept, the median scaled time reported. *)
let setup_median setup teardown =
  let timed () =
    let r0 = reference_loop_ms () in
    let t0 = now () in
    let st = setup () in
    let t1 = now () in
    (st, ns t0 t1 /. 1e9 *. speed_factor [ r0; reference_loop_ms () ])
  in
  let times =
    Array.init 4 (fun _ ->
        let st, t = timed () in
        teardown st;
        t)
  in
  let st, t = timed () in
  (st, median (Array.append times [| t |]))

(* How many windows [seconds] of work at [rate] ops/s fill, at least
   [least]. *)
let windows_for ~seconds ~rate ~window_ops ~least =
  Int.max least (int_of_float (Float.round (seconds *. rate /. float_of_int window_ops)))

type 'mark timing = {
  lat_ms : float array;  (** Every op's latency as timed. *)
  figures : (string * float) list;
      (** [ops_per_s], [p50_ms], [p90_ms] of the quicker half of the
          windows, scaled to reference speed. *)
  unscaled : (string * float) list;  (** The same over every window, as timed. *)
  refs_ms : float array;  (** Reference loop before each window and after the last. *)
  exact : ('mark * gc_mark) * ('mark * gc_mark);
      (** [mark ()] and the GC counts around the first window's ops, the
          GC counts taken closest to the ops. *)
}

(* [ops_per_s], [p50_ms] and [p90_ms] over the ops of [windows], each op's
   latency multiplied by its window's [factor]. *)
let figures ~window_ops lat_ms windows factor =
  let lat =
    Array.concat
      (List.map
         (fun w -> Array.init window_ops (fun k -> lat_ms.((w * window_ops) + k) *. factor w))
         windows)
  in
  [
    ("ops_per_s", float_of_int (Array.length lat) /. (Array.fold_left ( +. ) 0. lat /. 1e3));
    ("p50_ms", percentile lat 0.5);
    ("p90_ms", percentile lat 0.9);
  ]

(* The timed pass: [windows] windows of [window_ops] ops, with the
   reference loop timed before each window and after the last.
   [step i record] performs ops from index [i] on, calls [record] with each
   op's latency in ns, returns how many ops it did and never crosses a
   window boundary.  Only what [step] records counts as op time, so its
   output checks stay off the clock.

   Each window is scaled by the reference loop around it.  The reported
   figures come from the quicker half of the windows: a stretch in which
   other work on the host slowed the workload more than the reference
   loop shows as a slow window and is left out. *)
let timed_pass ~windows ~window_ops ~mark step =
  let lat_ms = Array.make (windows * window_ops) 0. in
  let recorded = ref 0 in
  let record dt =
    lat_ms.(!recorded) <- dt /. 1e6;
    incr recorded
  in
  let refs = Array.make (windows + 1) 0. in
  let m0 = ref None and m1 = ref None in
  for w = 0 to windows - 1 do
    refs.(w) <- reference_loop_ms ();
    if w = 0 then begin
      let m = mark () in
      m0 := Some (m, gc_mark ())
    end;
    let stop = (w + 1) * window_ops in
    let i = ref (w * window_ops) in
    while !i < stop do
      i := !i + step !i record
    done;
    if w = 0 then begin
      let g = gc_mark () in
      m1 := Some (mark (), g)
    end;
    if !i <> stop || !recorded <> stop then failwith "timed_pass: ops and latencies disagree"
  done;
  refs.(windows) <- reference_loop_ms ();
  let factor w = speed_factor [ refs.(w); refs.(w + 1) ] in
  let scaled_s w =
    let sum = ref 0. in
    for i = w * window_ops to ((w + 1) * window_ops) - 1 do
      sum := !sum +. lat_ms.(i)
    done;
    !sum *. factor w
  in
  let by_time = List.sort (fun a b -> Float.compare (scaled_s a) (scaled_s b)) (List.init windows Fun.id) in
  let quicker = List.filteri (fun k _ -> k < (windows + 1) / 2) by_time in
  {
    lat_ms;
    figures = figures ~window_ops lat_ms quicker factor;
    unscaled = figures ~window_ops lat_ms (List.init windows Fun.id) (fun _ -> 1.);
    refs_ms = refs;
    exact = (Option.get !m0, Option.get !m1);
  }

(* Replay exactly [n] ops (the traced pass). *)
let replay n step =
  let ops = ref 0 in
  while !ops < n do
    ops := !ops + step !ops
  done

(* What one workload run reports back to [main]. *)
type outcome = {
  attempted : int;
  failed : int;
  failures : string list;  (** First few failure descriptions. *)
  metrics : (string * float) list;
  domains : int;
  refs_ms : float array;
  unscaled : (string * float) list;
}

let end_to_end ~timing ~setup_s =
  timing.figures
  @ [ ("setup_s", setup_s); ("peak_rss_mb", float_of_int (proc_status "VmHWM") /. 1024.) ]

let gc_layers ~window_ops (g0, g1) =
  [
    ("gc.minor_words_per_op", (g1.words -. g0.words) /. float_of_int window_ops);
    ("gc.minor_collections", float_of_int (g1.minors - g0.minors));
    ("gc.major_collections", float_of_int (g1.majors - g0.majors));
  ]

let diagnostics ~timing ~failed ~attempted ~traced_ns =
  [
    ("lat.p99_ms", percentile timing.lat_ms 0.99);
    ("trace.overhead_share", (traced_ns /. (Array.fold_left ( +. ) 0. timing.lat_ms *. 1e6)) -. 1.);
    ("check.fail_ratio", float_of_int failed /. float_of_int (Int.max 1 attempted));
  ]

type failures = { mutable count : int; mutable notes : string list }

let new_failures () = { count = 0; notes = [] }

let fail ?(ops = 1) f fmt =
  Printf.ksprintf
    (fun msg ->
      f.count <- f.count + ops;
      if List.length f.notes < 5 then f.notes <- msg :: f.notes)
    fmt

(* Untraced runs report the end-to-end metrics, traced runs [layers]. *)
let outcome ~trace ~timing ~setup_s ~failures ~layers ~domains =
  let attempted = Array.length timing.lat_ms in
  {
    attempted;
    failed = failures.count;
    failures = List.rev failures.notes;
    metrics = (if trace then layers () else end_to_end ~timing ~setup_s);
    domains;
    refs_ms = timing.refs_ms;
    unscaled = timing.unscaled;
  }

let rel_dev a b =
  Float.abs (a -. b) /. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A seeded order of the items [0 .. n-1] whose class sequence is the same
   for every seed: a fixed template order decides which class sits at each
   position, and the seed only picks which member of that class.  Every
   seed then asks for the same amount of work. *)
let stratified ~seed ~class_of n =
  let template = Array.init n Fun.id in
  Sdfgen.Rng.shuffle (Sdfgen.Rng.create 0) template;
  let rng = Sdfgen.Rng.create seed in
  let classes = List.sort_uniq Int.compare (List.init n class_of) in
  let pools = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let members = Array.of_list (List.filter (fun i -> class_of i = c) (List.init n Fun.id)) in
      Sdfgen.Rng.shuffle rng members;
      Hashtbl.replace pools c (members, ref 0))
    classes;
  Array.map
    (fun i ->
      let members, next = Hashtbl.find pools (class_of i) in
      incr next;
      members.(!next - 1))
    template

(* ------------------------------------------------------------------ *)
(* sweep: design-time exploration, the paper's Table 1 / Fig. 6 path.  *)
(* Exp.Sweep simulates each use-case with desim and estimates it with  *)
(* the four paper estimators; desim does most of the work.             *)

module Sweep_bench = struct
  (* Use-cases per Exp.Sweep.run call; its per-call preparation of the ten
     applications is part of the first use-case's latency. *)
  let chunk = 8
  let window_ops = 2 * chunk
  let rate = 60.
  let estimators = Contention.Analysis.all_paper_estimators

  type t = { w : Exp.Workload.t; order : Contention.Usecase.t array }

  (* The paper's 10-application, 10-processor workload is fixed; the seed
     picks the order its 1023 use-cases are visited in, with the same
     number of applications at each position for every seed. *)
  let setup ~seed () =
    let w = Exp.Workload.make () in
    let n = (1 lsl Exp.Workload.num_apps w) - 1 in
    let order = Array.map (fun i -> i + 1) (stratified ~seed ~class_of:(fun i -> Contention.Usecase.cardinal (i + 1)) n) in
    (* Warm-up on eight use-cases from the far end of the order. *)
    ignore (Exp.Sweep.run ~jobs:1 ~horizon ~usecases:(List.init 8 (fun k -> order.(n - 1 - k))) w);
    { w; order }

  let usecase t i = t.order.(i mod Array.length t.order)
  let chunk_at t start = List.init chunk (fun k -> usecase t (start + k))

  (* Table 1's period inaccuracy summed over one use-case's valid
     observations and the four estimators, with the number of terms. *)
  let error_terms (obs : Exp.Sweep.observation list) =
    List.fold_left
      (fun (sum, n) (o : Exp.Sweep.observation) ->
        if Float.is_nan o.simulated_period then (sum, n)
        else
          List.fold_left
            (fun (sum, n) (_, p) ->
              (sum +. Repro_stats.Stats.abs_pct_error ~reference:o.simulated_period p, n + 1))
            (sum, n) o.estimated_periods)
      (0., 0) obs

  (* Observations of consecutive use-cases, split per use-case. *)
  let per_usecase (obs : Exp.Sweep.observation list) =
    let rec take k acc l =
      if k = 0 then (List.rev acc, l)
      else match l with [] -> (List.rev acc, []) | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let rec go acc = function
      | [] -> List.rev acc
      | (o : Exp.Sweep.observation) :: _ as l ->
          let group, rest = take (Contention.Usecase.cardinal o.usecase) [] l in
          go (group :: acc) rest
    in
    Array.of_list (go [] obs)

  let load_reference path =
    let table = Hashtbl.create 1024 in
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         if line <> "" && line.[0] <> '#' then
           Scanf.sscanf line "%d %d %f" (fun mask n sum -> Hashtbl.replace table mask (n, sum))
       done
     with End_of_file -> ());
    close_in ic;
    table

  let write_reference path =
    let w = Exp.Workload.make () in
    let r = Exp.Sweep.run ~jobs:1 ~horizon w in
    let oc = open_out path in
    Printf.fprintf oc
      "# use-case mask, terms, and the sum over the four paper estimators and the\n\
       # use-case's valid observations of |estimate - desim| / desim * 100\n\
       # (paper workload, seed %d, horizon %.0f); written by bench.exe --write-reference\n"
      w.Exp.Workload.seed horizon;
    Array.iter
      (fun obs ->
        let sum, n = error_terms obs in
        Printf.fprintf oc "%d %d %.17g\n" (List.hd obs).Exp.Sweep.usecase n sum)
      (per_usecase r.observations);
    close_out oc

  type trace_acc = {
    mutable desim_ns : float;
    mutable analysis_ns : float;
    mutable op_ns : float;
    mutable firings : int;
    mutable window_firings : int;
    mutable replayed : Exp.Sweep.observation list list;
  }

  (* The traced pass: the same chunks again, making the calls Exp.Sweep.run
     makes for each use-case, each timed. *)
  let traced_pass t ~ops =
    let acc =
      { desim_ns = 0.; analysis_ns = 0.; op_ns = 0.; firings = 0; window_firings = 0; replayed = [] }
    in
    let step start =
      let op_start = ref (now ()) in
      let caches = Array.map Contention.Analysis.prepare t.w.apps in
      let ws = Contention.Analysis.shared_workspace () in
      List.iteri
        (fun k uc ->
          let s0 = now () in
          let sim, stats =
            Desim.Engine.run ~horizon
              ?firing_time:(Exp.Workload.sim_firing_time t.w uc)
              ~procs:t.w.procs (Exp.Workload.sim_apps t.w uc)
          in
          let s1 = now () in
          let indices = Contention.Usecase.to_list uc in
          let pairs = List.map (fun i -> (t.w.apps.(i), caches.(i))) indices in
          let periods =
            List.map
              (fun est ->
                ( est,
                  List.map
                    (fun (r : Contention.Analysis.estimate) -> r.period)
                    (Contention.Analysis.estimate_prepared ~workspace:ws est pairs) ))
              estimators
          in
          let s2 = now () in
          let obs =
            List.mapi
              (fun pos app_index ->
                {
                  Exp.Sweep.usecase = uc;
                  app_index;
                  simulated_period = sim.(pos).Desim.Engine.avg_period;
                  simulated_worst = sim.(pos).Desim.Engine.max_period;
                  estimated_periods = List.map (fun (est, ps) -> (est, List.nth ps pos)) periods;
                })
              indices
          in
          let s3 = now () in
          acc.desim_ns <- acc.desim_ns +. ns s0 s1;
          acc.analysis_ns <- acc.analysis_ns +. ns s1 s2;
          acc.op_ns <- acc.op_ns +. ns !op_start s3;
          op_start := s3;
          acc.firings <- acc.firings + stats.Desim.Engine.total_firings;
          if start + k < window_ops then
            acc.window_firings <- acc.window_firings + stats.Desim.Engine.total_firings;
          acc.replayed <- obs :: acc.replayed)
        (chunk_at t start);
      chunk
    in
    replay ops step;
    acc

  let run ~seed ~seconds ~trace ~reference =
    let t, setup_s = setup_median (setup ~seed) ignore in
    let windows = windows_for ~seconds:(if trace then seconds /. 2. else seconds) ~rate ~window_ops ~least:2 in
    let chunks = ref [] in
    let step start record =
      let last = ref (now ()) in
      let progress _ _ =
        let tick = now () in
        record (ns !last tick);
        last := tick
      in
      chunks := Exp.Sweep.run ~jobs:1 ~horizon ~usecases:(chunk_at t start) ~progress t.w :: !chunks;
      chunk
    in
    let timing = timed_pass ~windows ~window_ops ~mark:ignore step in
    let ops = Array.length timing.lat_ms in
    let observed =
      per_usecase (List.concat_map (fun (r : Exp.Sweep.t) -> r.observations) (List.rev !chunks))
    in
    let f = new_failures () in
    (* Every op against the pinned desim reference. *)
    let reference = Option.map load_reference reference in
    let err_sum = ref 0. and err_n = ref 0 in
    Array.iteri
      (fun i obs ->
        let uc = usecase t i in
        let sum, n = error_terms obs in
        if i < window_ops then begin
          err_sum := !err_sum +. sum;
          err_n := !err_n + n
        end;
        match Option.map (fun tbl -> Hashtbl.find_opt tbl uc) reference with
        | None -> fail f "op %d: no reference file" i
        | Some None -> fail f "op %d: use-case %d missing from the reference" i uc
        | Some (Some (ref_n, ref_sum)) ->
            if ref_n <> n || rel_dev sum ref_sum > 1e-9 then
              fail f "op %d: use-case %d error %.17g over %d terms, reference %.17g over %d" i uc
                sum n ref_sum ref_n)
      observed;
    (* A seeded sample of ops against a direct, fresh-workspace estimate. *)
    let caches = Array.map Contention.Analysis.prepare t.w.apps in
    let ws = Contention.Analysis.workspace () in
    let rng = Sdfgen.Rng.create (seed + 1) in
    for _ = 1 to 8 do
      let i = Sdfgen.Rng.int rng (Array.length observed) in
      let obs = observed.(i) in
      let pairs =
        List.map
          (fun (o : Exp.Sweep.observation) -> (t.w.apps.(o.app_index), caches.(o.app_index)))
          obs
      in
      List.iter
        (fun est ->
          let direct = Contention.Analysis.estimate_prepared ~workspace:ws est pairs in
          List.iter2
            (fun (o : Exp.Sweep.observation) (r : Contention.Analysis.estimate) ->
              if not (same_bits (List.assoc est o.estimated_periods) r.period) then
                fail f "op %d: %s period of app %d differs from a direct estimate" i
                  (Contention.Analysis.estimator_name est)
                  o.app_index)
            obs direct)
        estimators
    done;
    let layers () =
      let acc = traced_pass t ~ops in
      List.iteri
        (fun i obs ->
          if compare obs observed.(i) <> 0 then
            fail f "op %d: the traced replay differs from the sweep's observations" i)
        (List.rev acc.replayed);
      let op = acc.op_ns in
      [
        ("desim.busy_share", acc.desim_ns /. op);
        ("desim.ns_per_firing", acc.desim_ns /. float_of_int acc.firings);
        ("desim.firings", float_of_int acc.window_firings);
        ("analysis.sweep_us_per_usecase", acc.analysis_ns /. 1e3 /. float_of_int ops);
        ("analysis.sweep_share", acc.analysis_ns /. op);
        ("exp.glue_share", (op -. acc.desim_ns -. acc.analysis_ns) /. op);
        ("accuracy.period_err_pct", !err_sum /. float_of_int !err_n);
      ]
      @ gc_layers ~window_ops (snd (fst timing.exact), snd (snd timing.exact))
      @ diagnostics ~timing ~failed:f.count ~attempted:ops ~traced_ns:op
    in
    outcome ~trace ~timing ~setup_s ~failures:f ~layers ~domains:1
end

(* ------------------------------------------------------------------ *)
(* serve: the run-time resource manager's query stream, sent through   *)
(* Serve.Server.handle_line (the parse-and-dispatch path a connection  *)
(* worker runs) from this one caller.  The socket is left out on       *)
(* purpose: see README.md.                                             *)

module Serve_bench = struct
  let session = "perfbench"

  (* The request stream is a seeded cycle of this many requests, replayed
     for as long as the run lasts. *)
  let cycle = 1 lsl 16

  (* Every [write_every]-th request is a session admit or release. *)
  let write_every = 32

  (* Zipf exponent of estimate-key popularity over 1023 masks x 4
     estimators: about four in five requests hit the default 256-entry
     cache. *)
  let zipf_s = 1.2
  let warmup = 4096
  let window_ops = 4096
  let rate = 12_000.
  let estimators = Array.of_list Contention.Analysis.all_paper_estimators
  let napps = 10
  let nkeys = ((1 lsl napps) - 1) * Array.length estimators
  let key_mask k = (k / Array.length estimators) + 1
  let key_estimator k = estimators.(k mod Array.length estimators)

  type t = {
    server : Serve.Server.t;
    w : Exp.Workload.t;  (** Local copy of the uploaded workload. *)
    lines : string array;  (** The request cycle. *)
    key : int array;  (** Estimate key per request, or [-1] admit, [-2] release. *)
    bodies : (int, string) Hashtbl.t;
        (** Per key, its estimate reply after the [cached] flag. *)
    answered : int array;  (** Per key, timed requests answered from [bodies]. *)
  }

  let line_of req = Serve.Json.to_string (Serve.Protocol.request_to_json req)

  let unwrap reply =
    match Serve.Json.of_string reply with
    | Error e -> Error e
    | Ok json -> Serve.Protocol.unwrap_reply json

  let zipf_cdf n s =
    let c = Array.make n 0. in
    let acc = ref 0. in
    for r = 0 to n - 1 do
      acc := !acc +. (1. /. (float_of_int (r + 1) ** s));
      c.(r) <- !acc
    done;
    Array.map (fun x -> x /. !acc) c

  let sample_rank cdf rng =
    let u = Sdfgen.Rng.float rng 1. in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

  let sockets = ref 0

  (* One Unix listener (the server needs one), one worker, audit and
     journal off; the requests never touch the socket. *)
  let start_server () =
    let dir = ".bench_build" in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    incr sockets;
    Serve.Server.start
      ~config:
        {
          Serve.Server.default_config with
          port = None;
          unix_path = Some (Printf.sprintf "%s/perfbench-%d-%d.sock" dir (Unix.getpid ()) !sockets);
          jobs = Some 1;
          audit_sample = 0;
          journal_path = None;
        }
      ()

  let hit_prefix = {|{"ok":{"cached":true|}
  let miss_prefix = {|{"ok":{"cached":false|}
  let admitted_prefix = {|{"ok":{"verdict":"admitted"|}
  let released_prefix = {|{"ok":{"released":|}

  (* [reply] from [off] on equals [body], without allocating. *)
  let tail_is reply off body =
    let n = String.length body in
    String.length reply - off = n
    &&
    let rec go i = i = n || (reply.[off + i] = body.[i] && go (i + 1)) in
    go 0

  (* Check an estimate reply against its key's earlier replies: hit or
     miss, every reply to a key carries the same body after its [cached]
     flag.  The first miss of a key records that body; [check_bodies] later
     compares each recorded body with a direct estimate. *)
  let consistent t k reply ~hit =
    let off = String.length (if hit then hit_prefix else miss_prefix) in
    match Hashtbl.find_opt t.bodies k with
    | Some body -> tail_is reply off body
    | None when hit -> false
    | None ->
        Hashtbl.add t.bodies k (String.sub reply off (String.length reply - off));
        true

  let setup ~seed () =
    let server = start_server () in
    let payload = Exp.Workload.to_string (Exp.Workload.make ()) in
    let w = match Exp.Workload.of_string payload with Ok w -> w | Error e -> failwith e in
    let digest =
      match
        Result.bind
          (unwrap (Serve.Server.handle_line server (line_of (Serve.Protocol.Upload { payload }))))
          Serve.Protocol.upload_reply_of_json
      with
      | Ok (up : Serve.Protocol.upload_reply) -> up.digest
      | Error e -> failwith ("upload: " ^ e)
    in
    let names = Exp.Workload.names w in
    let key_lines =
      Array.init nkeys (fun k ->
          line_of
            (Serve.Protocol.Estimate
               {
                 digest;
                 usecase =
                   Some (List.map (fun i -> names.(i)) (Contention.Usecase.to_list (key_mask k)));
                 estimator = key_estimator k;
               }))
    in
    (* Popularity rank to key: the same number of applications and the same
       estimator at every rank for every seed.  The sequence of ranks, and
       whether each write admits or releases, is fixed; the seed picks the
       keys and the applications.  The LRU's hits and misses depend only on
       the rank sequence, so every seed asks for the same amount of work. *)
    let popularity =
      stratified ~seed
        ~class_of:(fun k ->
          (Contention.Usecase.cardinal (key_mask k) * Array.length estimators)
          + (k mod Array.length estimators))
        nkeys
    in
    let rng = Sdfgen.Rng.create seed and ranks = Sdfgen.Rng.create 0 in
    let cdf = zipf_cdf nkeys zipf_s in
    let draw_key rng = popularity.(sample_rank cdf rng) in
    (* Writes keep the session's admitted set balanced so that it is empty
       again at the end of the cycle, which can then be replayed. *)
    let writes = cycle / write_every in
    let admitted = Array.make napps false and count = ref 0 and write_no = ref 0 in
    let key = Array.make cycle 0 in
    let lines =
      Array.init cycle (fun i ->
          if i mod write_every <> write_every - 1 then begin
            let k = draw_key ranks in
            key.(i) <- k;
            key_lines.(k)
          end
          else begin
            let remaining = writes - !write_no in
            incr write_no;
            let admit =
              !count = 0 || (!count < napps && !count + 2 <= remaining && Sdfgen.Rng.bool ranks)
            in
            let eligible =
              Array.of_list (List.filter (fun a -> admitted.(a) <> admit) (List.init napps Fun.id))
            in
            let a = Sdfgen.Rng.pick rng eligible in
            admitted.(a) <- admit;
            if admit then begin
              incr count;
              key.(i) <- -1;
              line_of
                (Serve.Protocol.Admit
                   {
                     session;
                     digest;
                     app = names.(a);
                     min_throughput = 0.;
                     confidence = None;
                     margin_method = None;
                   })
            end
            else begin
              decr count;
              key.(i) <- -2;
              line_of (Serve.Protocol.Release { session; app = names.(a) })
            end
          end)
    in
    let t =
      { server; w; lines; key; bodies = Hashtbl.create 4096; answered = Array.make nkeys 0 }
    in
    (* Warm-up: estimate requests of the same popularity, so the cache is
       in its steady state when timing starts.  Its replies are recorded
       and checked like the timed ones. *)
    let warm = Sdfgen.Rng.split ranks in
    for _ = 1 to warmup do
      let k = draw_key warm in
      let reply = Serve.Server.handle_line server key_lines.(k) in
      let hit = String.starts_with ~prefix:hit_prefix reply in
      if not ((hit || String.starts_with ~prefix:miss_prefix reply) && consistent t k reply ~hit)
      then failwith ("warm-up: unexpected reply " ^ reply)
    done;
    t

  let teardown t = Serve.Server.stop t.server

  type tally = {
    mutable hits : int;
    mutable misses : int;
    mutable admits : int;
    mutable releases : int;
    mutable hit_ns : float;
    mutable miss_ns : float;
    mutable admit_ns : float;
    mutable release_ns : float;
    f : failures;
  }

  let new_tally f =
    {
      hits = 0;
      misses = 0;
      admits = 0;
      releases = 0;
      hit_ns = 0.;
      miss_ns = 0.;
      admit_ns = 0.;
      release_ns = 0.;
      f;
    }

  (* Sort one reply into its bucket and check it; a reply that is not the
     expected answer is a failed op. *)
  let classify t tally i k reply dt =
    let starts prefix = String.starts_with ~prefix reply in
    if k >= 0 && (starts hit_prefix || starts miss_prefix) then begin
      let hit = starts hit_prefix in
      if hit then begin
        tally.hits <- tally.hits + 1;
        tally.hit_ns <- tally.hit_ns +. dt
      end
      else begin
        tally.misses <- tally.misses + 1;
        tally.miss_ns <- tally.miss_ns +. dt
      end;
      if consistent t k reply ~hit then t.answered.(k) <- t.answered.(k) + 1
      else fail tally.f "op %d: key %d answered differently from its earlier replies" i k
    end
    else if k = -1 && starts admitted_prefix then begin
      tally.admits <- tally.admits + 1;
      tally.admit_ns <- tally.admit_ns +. dt
    end
    else if k = -2 && starts released_prefix then begin
      tally.releases <- tally.releases + 1;
      tally.release_ns <- tally.release_ns +. dt
    end
    else fail tally.f "op %d: unexpected reply %s" i reply

  (* Each key's recorded reply body against a direct, list-based
     Contention.Analysis.estimate of the same use-case.  Every timed reply
     to a key whose body is wrong counts as failed. *)
  let check_bodies t f =
    Hashtbl.iter
      (fun k body ->
        let expected =
          Contention.Analysis.estimate (key_estimator k)
            (Exp.Workload.analysis_apps t.w (key_mask k))
        in
        let ok =
          match Result.bind (unwrap (miss_prefix ^ body)) Serve.Protocol.estimate_reply_of_json with
          | Error _ -> false
          | Ok (r : Serve.Protocol.estimate_reply) ->
              List.length r.rows = List.length expected
              && List.for_all2
                   (fun (row : Serve.Protocol.estimate_row) (e : Contention.Analysis.estimate) ->
                     row.app = e.for_app.graph.Sdf.Graph.name
                     && same_bits row.period e.period
                     && same_bits row.isolation_period e.for_app.isolation_period
                     && same_bits row.throughput (Contention.Analysis.throughput e))
                   r.rows expected
        in
        if not ok then
          fail ~ops:(Int.max 1 t.answered.(k)) f "key %d: served rows differ from a direct estimate" k)
      t.bodies

  let cache_counts t =
    match
      Result.bind
        (unwrap (Serve.Server.handle_line t.server {|{"cmd":"stats"}|}))
        Serve.Protocol.stats_reply_of_json
    with
    | Ok (s : Serve.Protocol.stats_reply) -> (s.cache_hits, s.cache_misses)
    | Error e -> failwith ("stats: " ^ e)

  type probes = {
    mutable json_ns : float;
    mutable decode_ns : float;
    mutable encode_ns : float;
    mutable encodes : int;
    mutable kernel_ns : float;
  }

  (* The traced pass: a fresh server and the same requests again, with the
     codec and the kernel probed on the same inputs outside the request
     timer. *)
  let traced_pass ~seed ~ops =
    let t = setup ~seed () in
    let traced = new_tally (new_failures ()) in
    let p = { json_ns = 0.; decode_ns = 0.; encode_ns = 0.; encodes = 0; kernel_ns = 0. } in
    let caches = Array.map Contention.Analysis.prepare t.w.apps in
    let ws = Contention.Analysis.workspace () in
    let step i =
      let j = i land (cycle - 1) in
      let line = t.lines.(j) and k = t.key.(j) in
      let p0 = now () in
      let json = Serve.Json.of_string line in
      let p1 = now () in
      ignore (Sys.opaque_identity (Result.bind json Serve.Protocol.request_of_json));
      let p2 = now () in
      p.json_ns <- p.json_ns +. ns p0 p1;
      p.decode_ns <- p.decode_ns +. ns p1 p2;
      let misses = traced.misses in
      let t0 = now () in
      let reply = Serve.Server.handle_line t.server line in
      classify t traced i k reply (ns t0 (now ()));
      (if k >= 0 then
         match Result.bind (unwrap reply) Serve.Protocol.estimate_reply_of_json with
         | Error _ -> ()
         | Ok r ->
             let e0 = now () in
             ignore
               (Sys.opaque_identity
                  (Serve.Json.to_string
                     (Serve.Protocol.ok (Serve.Protocol.estimate_reply_to_json r))));
             p.encode_ns <- p.encode_ns +. ns e0 (now ());
             p.encodes <- p.encodes + 1);
      if traced.misses > misses then begin
        let pairs =
          List.map (fun i -> (t.w.apps.(i), caches.(i))) (Contention.Usecase.to_list (key_mask k))
        in
        let k0 = now () in
        ignore
          (Sys.opaque_identity
             (Contention.Analysis.estimate_prepared ~workspace:ws (key_estimator k) pairs));
        p.kernel_ns <- p.kernel_ns +. ns k0 (now ())
      end;
      1
    in
    replay ops step;
    teardown t;
    (traced, p)

  let run ~seed ~seconds ~trace =
    let t, setup_s = setup_median (setup ~seed) teardown in
    let windows = windows_for ~seconds:(if trace then seconds /. 2. else seconds) ~rate ~window_ops ~least:2 in
    let f = new_failures () in
    let tally = new_tally f in
    let step i record =
      let j = i land (cycle - 1) in
      let t0 = now () in
      let reply = Serve.Server.handle_line t.server t.lines.(j) in
      let dt = ns t0 (now ()) in
      record dt;
      classify t tally i t.key.(j) reply dt;
      1
    in
    let timing =
      timed_pass ~windows ~window_ops ~mark:(fun () -> cache_counts t) step
    in
    let ops = Array.length timing.lat_ms in
    teardown t;
    check_bodies t f;
    let layers () =
      let traced, p = traced_pass ~seed ~ops in
      if traced.f.count > 0 then fail f "traced replay: %d failed ops" traced.f.count;
      let op = traced.hit_ns +. traced.miss_ns +. traced.admit_ns +. traced.release_ns in
      let per n total = if n = 0 then 0. else total /. 1e3 /. float_of_int n in
      let codec = p.json_ns +. p.decode_ns +. p.encode_ns in
      let ((h0, m0), g0), ((h1, m1), g1) = timing.exact in
      let hits = h1 - h0 and misses = m1 - m0 in
      [
        ("json.decode_us", per ops p.json_ns);
        ("protocol.decode_us", per ops p.decode_ns);
        ("protocol.encode_us", per p.encodes p.encode_ns);
        ("server.hit_us", per traced.hits traced.hit_ns);
        ("server.miss_us", per traced.misses traced.miss_ns);
        ("server.admit_us", per traced.admits traced.admit_ns);
        ("server.release_us", per traced.releases traced.release_ns);
        ("analysis.serve_us_per_miss", per traced.misses p.kernel_ns);
        ("lru.hit_ratio", float_of_int hits /. float_of_int (hits + misses));
        ("lru.misses", float_of_int misses);
        ("serve.codec_share", codec /. op);
        ("serve.kernel_share", p.kernel_ns /. op);
        ("serve.dispatch_share", (op -. codec -. p.kernel_ns) /. op);
      ]
      @ gc_layers ~window_ops (g0, g1)
      @ diagnostics ~timing ~failed:f.count ~attempted:ops ~traced_ns:op
    in
    (* This domain, the server's one worker and its Unix acceptor. *)
    outcome ~trace ~timing ~setup_s ~failures:f ~layers ~domains:3
end

(* ------------------------------------------------------------------ *)
(* admit: online admission at scale.  Admission.try_admit and withdraw *)
(* churn 1,000 light resident applications on 4 processors; no codec,  *)
(* cache or desim runs.                                                *)

module Admit_bench = struct
  let residents = 1_000
  let spares = 250
  let procs = 4

  (* Every [margin_every]-th join asks for a z-score confidence margin. *)
  let margin_every = 8
  let window_ops = 2_000
  let rate = 12_000.
  let margin_spec = Contention.Admission.default_margin_spec

  type t = {
    ctl : Contention.Admission.t;
    apps : Contention.Analysis.app array;
    inside : int array;  (** Resident app indices. *)
    outside : int array;  (** Spare app indices. *)
    rng : Sdfgen.Rng.t;  (** Churn choices. *)
    mutable vacated : int;  (** [inside] slot freed by the last leave. *)
    mutable joins : int;
  }

  let name (a : Contention.Analysis.app) = a.graph.Sdf.Graph.name

  (* Light resident applications, drawn as the bench's ADMIT section and
     the churn fuzz tier draw them: HSDF isolation periods, no saturated
     actor (no ⊖ inverse), activation periods inflated so the population
     sums to about one utilization per processor. *)
  let gen rng ~period_slack name =
    let params =
      {
        Sdfgen.Generator.default_params with
        actors_min = 2;
        actors_max = 4;
        exec_min = 2;
        exec_max = 20;
      }
    in
    let rec draw attempts =
      let g = Sdfgen.Generator.generate ~params (Sdfgen.Rng.split rng) ~name in
      let app =
        Contention.Analysis.app g
          ~period:(period_slack *. Sdf.Hsdf.period g)
          ~mapping:(Contention.Mapping.modulo ~procs g)
      in
      if
        attempts < 50
        && Array.exists (fun (l : Contention.Prob.t) -> l.p >= 1.) (Contention.Analysis.loads app)
      then draw (attempts + 1)
      else app
    in
    draw 0

  let setup ~seed () =
    let rng = Sdfgen.Rng.create seed in
    let period_slack = Float.max 12. (0.25 *. float_of_int residents) in
    let apps =
      Array.init (residents + spares) (fun i -> gen rng ~period_slack (Printf.sprintf "R%d" i))
    in
    let ctl = Contention.Admission.create ~procs () in
    for i = 0 to residents - 1 do
      match Contention.Admission.try_admit ctl apps.(i) Contention.Admission.best_effort with
      | Contention.Admission.Admitted _ -> ()
      | _ -> failwith "admit: a resident was rejected during the ramp"
    done;
    {
      ctl;
      apps;
      inside = Array.init residents Fun.id;
      outside = Array.init spares (fun k -> residents + k);
      rng = Sdfgen.Rng.split rng;
      vacated = 0;
      joins = 0;
    }

  type tally = {
    mutable join_ns : float;
    mutable joins_plain : int;
    mutable join_margin_ns : float;
    mutable joins_margin : int;
    mutable leave_ns : float;
    mutable leaves : int;
  }

  let new_tally () =
    {
      join_ns = 0.;
      joins_plain = 0;
      join_margin_ns = 0.;
      joins_margin = 0;
      leave_ns = 0.;
      leaves = 0;
    }

  (* Op [i]: even ops withdraw a random resident, odd ops admit a random
     spare into the freed slot.  [after_join] sees each admitted app. *)
  let op t f tally ~after_join i record =
    if i mod 2 = 0 then begin
      let slot = Sdfgen.Rng.int t.rng residents in
      let victim = name t.apps.(t.inside.(slot)) in
      let t0 = now () in
      let ok =
        match Contention.Admission.withdraw t.ctl victim with
        | () -> true
        | exception Not_found -> false
      in
      let dt = ns t0 (now ()) in
      record dt;
      tally.leave_ns <- tally.leave_ns +. dt;
      tally.leaves <- tally.leaves + 1;
      if not ok then fail f "op %d: %s was not admitted" i victim;
      t.vacated <- slot
    end
    else begin
      let k = Sdfgen.Rng.int t.rng spares in
      let idx = t.outside.(k) in
      t.joins <- t.joins + 1;
      let margin = if t.joins mod margin_every = 0 then Some margin_spec else None in
      let t0 = now () in
      let verdict =
        match
          Contention.Admission.try_admit ?margin t.ctl t.apps.(idx)
            Contention.Admission.best_effort
        with
        | v -> Ok v
        | exception Invalid_argument msg -> Error msg
      in
      let dt = ns t0 (now ()) in
      record dt;
      (match margin with
      | None ->
          tally.join_ns <- tally.join_ns +. dt;
          tally.joins_plain <- tally.joins_plain + 1
      | Some _ ->
          tally.join_margin_ns <- tally.join_margin_ns +. dt;
          tally.joins_margin <- tally.joins_margin + 1);
      (match (verdict, margin) with
      | Ok (Contention.Admission.Admitted { margin = None }), None
      | Ok (Contention.Admission.Admitted { margin = Some _ }), Some _ ->
          after_join ~margin:(Option.is_some margin) (name t.apps.(idx))
      | Ok _, _ ->
          fail f "op %d: best-effort join of %s not admitted as asked" i (name t.apps.(idx))
      | Error msg, _ -> fail f "op %d: %s" i msg);
      t.outside.(k) <- t.inside.(t.vacated);
      t.inside.(t.vacated) <- idx
    end;
    1

  let counters_delta (a : Contention.Admission.counters) (b : Contention.Admission.counters) =
    [
      ("admission.incremental_ops", b.incremental_ops - a.incremental_ops);
      ("admission.drift_refolds", b.drift_refolds - a.drift_refolds);
      ("admission.group_rebuilds", b.group_rebuilds - a.group_rebuilds);
      ("admission.group_drift_refolds", b.group_drift_refolds - a.group_drift_refolds);
      ("admission.full_rebuilds", b.full_rebuilds - a.full_rebuilds);
    ]

  (* Zero full rebuilds, and every processor's maintained aggregate within
     the drift bound of a fresh refold of the population. *)
  let check_final t f =
    let c = Contention.Admission.counters t.ctl in
    if c.full_rebuilds <> 0 then fail f "%d full rebuilds" c.full_rebuilds;
    for proc = 0 to procs - 1 do
      let inc = Contention.Admission.aggregate t.ctl ~proc in
      let fresh = Contention.Admission.refolded_aggregate t.ctl ~proc in
      let dp = rel_dev inc.Contention.Compose.p fresh.Contention.Compose.p in
      let dw = rel_dev inc.Contention.Compose.w fresh.Contention.Compose.w in
      (* 0.05 is Admission.create's default refold bound. *)
      if dp > 1e-6 || dw > 0.05 then
        fail f "proc %d: aggregate off its refold by %.3g (p) / %.3g (w)" proc dp dw
    done

  (* The traced pass: a fresh controller and the same churn again, with
     the period and margin paths probed after each join, outside the op
     timer. *)
  let traced_pass ~seed ~ops f =
    let t = setup ~seed () in
    let traced = new_tally () in
    let period_ns = ref 0. and periods = ref 0 and margin_ns = ref 0. and margins = ref 0 in
    let after_join ~margin app =
      let p0 = now () in
      ignore (Sys.opaque_identity (Contention.Admission.estimated_period t.ctl app));
      period_ns := !period_ns +. ns p0 (now ());
      incr periods;
      if margin then begin
        let m0 = now () in
        ignore (Sys.opaque_identity (Contention.Admission.margin_for t.ctl margin_spec app));
        margin_ns := !margin_ns +. ns m0 (now ());
        incr margins
      end
    in
    let tf = new_failures () in
    replay ops (fun i -> op t tf traced ~after_join i ignore);
    check_final t tf;
    if tf.count > 0 then fail f "traced replay: %d failed ops" tf.count;
    let per n total = if n = 0 then 0. else total /. 1e3 /. float_of_int n in
    let op_ns = traced.join_ns +. traced.join_margin_ns +. traced.leave_ns in
    ( op_ns,
      [
        ("admission.join_us", per traced.joins_plain traced.join_ns);
        ("admission.join_margin_us", per traced.joins_margin traced.join_margin_ns);
        ("admission.leave_us", per traced.leaves traced.leave_ns);
        ("admission.period_us", per !periods !period_ns);
        ("margin.z_us", per !margins !margin_ns);
        ("admission.join_share", (traced.join_ns +. traced.join_margin_ns) /. op_ns);
        ("admission.leave_share", traced.leave_ns /. op_ns);
      ] )

  let run ~seed ~seconds ~trace =
    let t, setup_s = setup_median (setup ~seed) ignore in
    let windows = windows_for ~seconds:(if trace then seconds /. 2. else seconds) ~rate ~window_ops ~least:2 in
    let f = new_failures () in
    let timing =
      timed_pass ~windows ~window_ops
        ~mark:(fun () -> Contention.Admission.counters t.ctl)
        (op t f (new_tally ()) ~after_join:(fun ~margin:_ _ -> ()))
    in
    let ops = Array.length timing.lat_ms in
    check_final t f;
    let layers () =
      let op_ns, probed = traced_pass ~seed ~ops f in
      let (c0, g0), (c1, g1) = timing.exact in
      probed
      @ List.map (fun (k, v) -> (k, float_of_int v)) (counters_delta c0 c1)
      @ gc_layers ~window_ops (g0, g1)
      @ diagnostics ~timing ~failed:f.count ~attempted:ops ~traced_ns:op_ns
    in
    outcome ~trace ~timing ~setup_s ~failures:f ~layers ~domains:1
end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let usage () =
  prerr_endline
    "usage: bench.exe --workload sweep|serve|admit --seed N --seconds S --trace 0|1 [--reference \
     FILE]\n\
    \       bench.exe --write-reference FILE";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let reference = ref None and write_reference = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := v = "1";
        parse rest
    | "--reference" :: v :: rest ->
        reference := Some v;
        parse rest
    | "--write-reference" :: v :: rest ->
        write_reference := Some v;
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match !write_reference with
  | Some path -> Sweep_bench.write_reference path
  | None ->
      (* The first reference loop of a process runs cold; warm it once. *)
      ignore (reference_loop_ms ());
      let ref_start_ms = reference_loop_ms () in
      let outcome =
        match !workload with
        | "sweep" ->
            Sweep_bench.run ~seed:!seed ~seconds:!seconds ~trace:!trace ~reference:!reference
        | "serve" -> Serve_bench.run ~seed:!seed ~seconds:!seconds ~trace:!trace
        | "admit" -> Admit_bench.run ~seed:!seed ~seconds:!seconds ~trace:!trace
        | _ -> usage ()
      in
      let ref_end_ms = reference_loop_ms () in
      (* The host record: beside the result, never part of its metrics. *)
      Printf.printf
        "{\"host\": {\"nproc\": %d, \"ocaml\": %S, \"domains\": %d, \"os_threads\": %d, \
         \"ref_ms_start\": %s, \"ref_ms_median\": %s, \"ref_ms_end\": %s, \"ref_nominal_ms\": %s, \
         \"unscaled\": {%s}}}\n"
        (Domain.recommended_domain_count ())
        Sys.ocaml_version outcome.domains (proc_status "Threads") (json_num ref_start_ms)
        (json_num (median outcome.refs_ms))
        (json_num ref_end_ms) (json_num ref_nominal_ms)
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_num v)) outcome.unscaled));
      List.iter (fun msg -> prerr_endline ("check failed: " ^ msg)) outcome.failures;
      let correct = outcome.failed = 0 in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        correct outcome.attempted outcome.failed
        (String.concat ", "
           (List.map (fun (name, v) -> Printf.sprintf "%S: %s" name (json_num v)) outcome.metrics));
      if not correct then exit 1
