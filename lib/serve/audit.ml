module Drift = struct
  type t = {
    delta : float;
    lambda : float;
    min_samples : int;
    mutable n : int;
    mutable mean : float;
    mutable m_up : float;  (* cumulative upward deviation *)
    mutable min_up : float;
    mutable m_dn : float;  (* cumulative downward deviation *)
    mutable max_dn : float;
    mutable alarm_count : int;
  }

  let create ?(delta = 0.005) ?(lambda = 0.25) ?(min_samples = 20) () =
    {
      delta;
      lambda;
      min_samples;
      n = 0;
      mean = 0.;
      m_up = 0.;
      min_up = 0.;
      m_dn = 0.;
      max_dn = 0.;
      alarm_count = 0;
    }

  let reset t =
    t.n <- 0;
    t.mean <- 0.;
    t.m_up <- 0.;
    t.min_up <- 0.;
    t.m_dn <- 0.;
    t.max_dn <- 0.

  let observe t x =
    t.n <- t.n + 1;
    t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n);
    t.m_up <- t.m_up +. (x -. t.mean -. t.delta);
    if t.m_up < t.min_up then t.min_up <- t.m_up;
    t.m_dn <- t.m_dn +. (x -. t.mean +. t.delta);
    if t.m_dn > t.max_dn then t.max_dn <- t.m_dn;
    let alarm =
      t.n >= t.min_samples
      && (t.m_up -. t.min_up > t.lambda || t.max_dn -. t.m_dn > t.lambda)
    in
    if alarm then begin
      t.alarm_count <- t.alarm_count + 1;
      (* Restart detection, but leave the alarm count (and with it the
         flagged bit) up: drift wants operator attention, not self-clear. *)
      reset t
    end;
    alarm

  let flagged t = t.alarm_count > 0
  let alarms t = t.alarm_count
end

type config = {
  sample_every : int;
  horizon : float;
  queue_capacity : int;
  drift_delta : float;
  drift_lambda : float;
  drift_min_samples : int;
}

let default_config =
  {
    sample_every = 64;
    horizon = 50_000.;
    queue_capacity = 64;
    drift_delta = 0.005;
    drift_lambda = 0.25;
    drift_min_samples = 20;
  }

type task = {
  digest : string;
  workload : Exp.Workload.t;
  mask : Contention.Usecase.t;
  estimator : string;
  rows : Protocol.estimate_row list;
  ctx : Obs.Span.ctx option;
}

type margin_task = {
  m_digest : string;
  m_workload : Exp.Workload.t;
  m_mask : Contention.Usecase.t;  (* the admitted population, candidate included *)
  m_app : string;  (* the application whose margin was served *)
  m_margin : Contention.Margin.t;
  m_ctx : Obs.Span.ctx option;
}

type item = Estimate of task | Margin_check of margin_task

(* One audited estimator: its drift detector and its registry series. *)
type estimator = {
  drift : Drift.t;
  m_total : Obs.Metric.Counter.t;
  m_error : Obs.Metric.Histogram.t;
  m_drift : Obs.Metric.Gauge.t;
}

type t = {
  config : config;
  registry : Obs.Metric.registry;
  journal : Journal.t option;
  queue : item Queue.t;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable closed : bool;
  mutable in_flight : bool;
  head : int Atomic.t;  (* estimate-request counter for 1-in-N sampling *)
  mutable max_abs_err : float;
  estimators : (string, estimator) Hashtbl.t;
  m_submitted : Obs.Metric.Counter.t;
  m_dropped : Obs.Metric.Counter.t;
  m_failed : Obs.Metric.Counter.t;
  m_margin_total : Obs.Metric.Counter.t;
  m_margin_missed : Obs.Metric.Counter.t;
  mutable domain : unit Domain.t option;
}

(* Symmetric buckets around zero: the error is signed, and the sign is the
   signal (even truncations should sit right of zero, odd ones left). *)
let error_buckets =
  [|
    -0.5; -0.2; -0.1; -0.05; -0.02; -0.01; 0.; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5;
  |]

let m_alarms t est =
  Obs.Metric.Counter.v ~registry:t.registry
    ~help:"Page-Hinkley drift alarms, by estimator."
    ~labels:[ ("estimator", est) ]
    "contention_serve_audit_alarms_total"

(* Caller holds [t.mutex].  The alarm counter is not resolved here: it
   appears on the first alarm, so its absence reads as zero alarms. *)
let estimator_for t est =
  match Hashtbl.find_opt t.estimators est with
  | Some e -> e
  | None ->
      let registry = t.registry and labels = [ ("estimator", est) ] in
      let e =
        {
          drift =
            Drift.create ~delta:t.config.drift_delta
              ~lambda:t.config.drift_lambda
              ~min_samples:t.config.drift_min_samples ();
          m_total =
            Obs.Metric.Counter.v ~registry ~labels
              ~help:
                "Served estimates replayed through the simulator, by estimator."
              "contention_serve_audit_total";
          m_error =
            Obs.Metric.Histogram.v ~registry ~labels ~buckets:error_buckets
              ~help:
                "Signed relative period error of served estimates vs \
                 simulation, by estimator."
              "contention_serve_audit_error";
          m_drift =
            Obs.Metric.Gauge.v ~registry ~labels
              ~help:"1 when the estimator's error stream has drifted (sticky)."
              "contention_serve_audit_drift";
        }
      in
      Hashtbl.add t.estimators est e;
      (* Materialise the gauge at 0 so the exposition shows the estimator
         as audited-and-healthy, not merely absent. *)
      Obs.Metric.Gauge.set e.m_drift 0.;
      e

let journal_record t (task : task) ~errs ~outcome =
  match t.journal with
  | Some j when Journal.sampled j ~ctx:task.ctx ->
      let mean_err, max_abs =
        match errs with
        | [] -> (0., 0.)
        | errs ->
            let n = float_of_int (List.length errs) in
            ( List.fold_left ( +. ) 0. errs /. n,
              List.fold_left (fun m e -> Float.max m (Float.abs e)) 0. errs )
      in
      Journal.record j ~ctx:task.ctx ~cmd:"audit" ~workload:task.digest
        [
          ("estimator", Json.Str task.estimator);
          ("outcome", Json.Str outcome);
          ("rows", Json.Num (float_of_int (List.length task.rows)));
          ("mean_err", Json.Num mean_err);
          ("max_abs_err", Json.Num max_abs);
        ]
  | _ -> ()

(* The replay simulation of use-case [mask] of [w]: one result per active
   application, in Usecase.to_list order. *)
let simulate t (w : Exp.Workload.t) mask =
  fst
    (Desim.Engine.run ~horizon:t.config.horizon
       ?firing_time:(Exp.Workload.sim_firing_time w mask)
       ~procs:w.procs
       (Exp.Workload.sim_apps w mask))

(* Replay one served estimate: simulate the same use-case and compare each
   application's estimated period against its simulated average period.
   Rows and simulator results share Usecase.to_list order. *)
let replay t (task : task) =
  let results = simulate t task.workload task.mask in
  if Array.length results <> List.length task.rows then
    failwith "row/result arity mismatch"
  else
    List.filter_map Fun.id
      (List.mapi
         (fun pos (row : Protocol.estimate_row) ->
           let sim = results.(pos).Desim.Engine.avg_period in
           (* The simulation can finish with < 2 post-warmup iterations
              (nan) or a degenerate period; such rows carry no error
              signal. *)
           if Float.is_finite sim && sim > 0. then
             Some ((row.Protocol.period -. sim) /. sim)
           else None)
         task.rows)

let process t (task : task) =
  let audit () =
    Obs.Span.with_ ~name:"audit.replay"
      ~args:(fun () ->
        [ ("digest", task.digest); ("estimator", task.estimator) ])
      (fun () -> replay t task)
  in
  let outcome =
    (* Re-establish the originating request's trace context, so the replay
       span (and the journal line) join the request that triggered it. *)
    match
      match task.ctx with
      | None -> audit ()
      | Some c -> Obs.Span.with_context c audit
    with
    | errs -> Ok errs
    | exception e -> Error (Printexc.to_string e)
  in
  match outcome with
  | Error _ ->
      Obs.Metric.Counter.inc t.m_failed;
      journal_record t task ~errs:[] ~outcome:"failed"
  | Ok errs ->
      Mutex.lock t.mutex;
      let e = estimator_for t task.estimator in
      let alarmed =
        List.fold_left (fun a err -> Drift.observe e.drift err || a) false errs
      in
      List.iter
        (fun err -> t.max_abs_err <- Float.max t.max_abs_err (Float.abs err))
        errs;
      Mutex.unlock t.mutex;
      List.iter (Obs.Metric.Histogram.observe e.m_error) errs;
      Obs.Metric.Counter.inc e.m_total;
      if alarmed then begin
        Obs.Metric.Counter.inc (m_alarms t task.estimator);
        Obs.Metric.Gauge.set e.m_drift 1.
      end;
      journal_record t task ~errs ~outcome:"ok"

let margin_journal_record t (task : margin_task) ~observed ~outcome =
  match t.journal with
  | Some j when Journal.sampled j ~ctx:task.m_ctx ->
      let m = task.m_margin in
      Journal.record j ~ctx:task.m_ctx ~cmd:"audit-margin"
        ~workload:task.m_digest
        ([
           ("app", Json.Str task.m_app);
           ("confidence", Json.Num m.Contention.Margin.confidence);
           ("lo", Json.Num m.lo);
           ("hi", Json.Num m.hi);
           ("outcome", Json.Str outcome);
         ]
        @ Option.fold ~none:[] ~some:(fun p -> [ ("observed", Json.Num p) ]) observed)
  | _ -> ()

(* Replay one served margin: simulate the admitted population and check the
   application's observed average period against the served interval.  One
   replay is one Bernoulli trial at the margin's confidence — the aggregate
   miss rate is the signal, not any single miss. *)
let process_margin t (task : margin_task) =
  let observe () =
    let results = simulate t task.m_workload task.m_mask in
    let names = Exp.Workload.names task.m_workload in
    let rec find pos = function
      | [] -> failwith "margin app not in population mask"
      | idx :: rest -> if names.(idx) = task.m_app then pos else find (pos + 1) rest
    in
    let pos = find 0 (Contention.Usecase.to_list task.m_mask) in
    results.(pos).Desim.Engine.avg_period
  in
  let run () =
    Obs.Span.with_ ~name:"audit.margin"
      ~args:(fun () -> [ ("digest", task.m_digest); ("app", task.m_app) ])
      observe
  in
  match
    match task.m_ctx with
    | None -> run ()
    | Some c -> Obs.Span.with_context c run
  with
  | exception e ->
      Obs.Metric.Counter.inc t.m_failed;
      margin_journal_record t task ~observed:None
        ~outcome:(Printf.sprintf "failed: %s" (Printexc.to_string e))
  | observed when not (Float.is_finite observed && observed > 0.) ->
      Obs.Metric.Counter.inc t.m_failed;
      margin_journal_record t task ~observed:None ~outcome:"degenerate"
  | observed ->
      let covered = Contention.Margin.covers task.m_margin observed in
      Obs.Metric.Counter.inc t.m_margin_total;
      if not covered then Obs.Metric.Counter.inc t.m_margin_missed;
      margin_journal_record t task ~observed:(Some observed)
        ~outcome:(if covered then "covered" else "missed")

let worker t () =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.cond t.mutex
    done;
    let task = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
    (match task with Some _ -> t.in_flight <- true | None -> ());
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
        (* A replay bug must not take the audit domain down. *)
        (try
           match task with
           | Estimate task -> process t task
           | Margin_check task -> process_margin t task
         with _ -> ());
        Mutex.lock t.mutex;
        t.in_flight <- false;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        loop ()
  in
  loop ()

let create ?(config = default_config) ~registry ?journal () =
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Serve.Audit.create: " ^ m)) fmt
  in
  if not (Float.is_finite config.horizon && config.horizon > 0.) then
    fail "horizon %g is not finite and positive" config.horizon;
  if not (Float.is_finite config.drift_lambda && config.drift_lambda > 0.) then
    fail "drift_lambda %g is not finite and positive" config.drift_lambda;
  if not (Float.is_finite config.drift_delta && config.drift_delta >= 0.) then
    fail "drift_delta %g is not finite and non-negative" config.drift_delta;
  let config =
    { config with sample_every = max 1 config.sample_every;
      queue_capacity = max 1 config.queue_capacity }
  in
  let t =
    {
      config;
      registry;
      journal;
      queue = Queue.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      closed = false;
      in_flight = false;
      head = Atomic.make 0;
      max_abs_err = 0.;
      estimators = Hashtbl.create 4;
      m_submitted =
        Obs.Metric.Counter.v ~registry
          ~help:"Audit samples queued for replay, estimates and margins."
          "contention_serve_audit_submitted_total";
      m_dropped =
        Obs.Metric.Counter.v ~registry
          ~help:"Audit samples dropped because the audit queue was full."
          "contention_serve_audit_dropped_total";
      m_failed =
        Obs.Metric.Counter.v ~registry
          ~help:"Audit replays that raised or produced no usable period."
          "contention_serve_audit_failed_total";
      m_margin_total =
        Obs.Metric.Counter.v ~registry
          ~help:"Served admission margins replayed through the simulator."
          "contention_serve_audit_margin_total";
      m_margin_missed =
        Obs.Metric.Counter.v ~registry
          ~help:
            "Margin replays whose simulated period fell outside the served \
             bounds."
          "contention_serve_audit_margin_missed_total";
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (worker t));
  t

let sampled t =
  let n = Atomic.fetch_and_add t.head 1 in
  n mod t.config.sample_every = 0

let submit_item t item =
  Mutex.lock t.mutex;
  let verdict =
    if t.closed then `Closed
    else if Queue.length t.queue >= t.config.queue_capacity then `Dropped
    else begin
      (* Counted before the replay domain can see the item, so a scrape
         never shows more replays than submissions. *)
      Obs.Metric.Counter.inc t.m_submitted;
      Queue.push item t.queue;
      Condition.signal t.cond;
      `Accepted
    end
  in
  Mutex.unlock t.mutex;
  if verdict = `Dropped then Obs.Metric.Counter.inc t.m_dropped;
  verdict = `Accepted

let submit t task = submit_item t (Estimate task)
let submit_margin t task = submit_item t (Margin_check task)

let stats t =
  Mutex.lock t.mutex;
  let estimators = List.of_seq (Hashtbl.to_seq_values t.estimators) in
  let alarms =
    List.fold_left (fun n e -> n + Drift.alarms e.drift) 0 estimators
  in
  let drifting =
    List.sort String.compare
      (Hashtbl.fold
         (fun est e acc -> if Drift.flagged e.drift then est :: acc else acc)
         t.estimators [])
  in
  let max_abs_err = t.max_abs_err in
  Mutex.unlock t.mutex;
  let count c = int_of_float (Obs.Metric.Counter.value c) in
  let sum f = List.fold_left (fun acc e -> acc +. f e) 0. estimators in
  (* Read in the reverse of increment order (a submission before its
     replay, a check before its miss), so a reply never shows more replays
     than submissions or more misses than checks. *)
  let completed =
    int_of_float (sum (fun e -> Obs.Metric.Counter.value e.m_total))
  in
  let submitted = count t.m_submitted in
  let margin_missed = count t.m_margin_missed in
  let margin_checked = count t.m_margin_total in
  let err_n =
    sum (fun e -> float_of_int (Obs.Metric.Histogram.count e.m_error))
  in
  let err_sum = sum (fun e -> Obs.Metric.Histogram.sum e.m_error) in
  {
    Protocol.audit_sample = t.config.sample_every;
    audit_submitted = submitted;
    audit_completed = completed;
    audit_dropped = count t.m_dropped;
    audit_failed = count t.m_failed;
    audit_mean_err = (if err_n = 0. then 0. else err_sum /. err_n);
    audit_max_abs_err = max_abs_err;
    audit_alarms = alarms;
    audit_drifting = drifting;
    audit_margin_checked = margin_checked;
    audit_margin_missed = margin_missed;
  }

let drain t =
  Mutex.lock t.mutex;
  while not (Queue.is_empty t.queue) || t.in_flight do
    Condition.wait t.cond t.mutex
  done;
  Mutex.unlock t.mutex

let stop t =
  Mutex.lock t.mutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  if not was_closed then begin
    Option.iter Domain.join t.domain;
    t.domain <- None
  end
