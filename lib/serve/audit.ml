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

type t = {
  config : config;
  registry : Obs.Metric.registry;
  journal : Journal.t option;
  shard : string option;
  queue : item Queue.t;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable closed : bool;
  mutable in_flight : bool;
  head : int Atomic.t;  (* estimate-request counter for 1-in-N sampling *)
  (* Aggregates for the stats reply, all under [mutex]. *)
  mutable submitted : int;
  mutable completed : int;
  mutable dropped : int;
  mutable failed : int;
  mutable err_sum : float;
  mutable err_n : int;
  mutable max_abs_err : float;
  mutable margin_checked : int;
  mutable margin_missed : int;
  drift_by_estimator : (string, Drift.t) Hashtbl.t;
  m_dropped : Obs.Metric.Counter.t;
  m_failed : Obs.Metric.Counter.t;
  mutable domain : unit Domain.t option;
}

(* Symmetric buckets around zero: the error is signed, and the sign is the
   signal (even truncations should sit right of zero, odd ones left). *)
let error_buckets =
  [|
    -0.5; -0.2; -0.1; -0.05; -0.02; -0.01; 0.; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5;
  |]

let m_total t est =
  Obs.Metric.Counter.v ~registry:t.registry
    ~help:"Served estimates replayed through the simulator, by estimator."
    ~labels:[ ("estimator", est) ]
    "contention_serve_audit_total"

let m_error t est =
  Obs.Metric.Histogram.v ~registry:t.registry
    ~help:
      "Signed relative period error of served estimates vs simulation, by \
       estimator."
    ~buckets:error_buckets
    ~labels:[ ("estimator", est) ]
    "contention_serve_audit_error"

let m_drift t est =
  Obs.Metric.Gauge.v ~registry:t.registry
    ~help:"1 when the estimator's error stream has drifted (sticky)."
    ~labels:[ ("estimator", est) ]
    "contention_serve_audit_drift"

let m_alarms t est =
  Obs.Metric.Counter.v ~registry:t.registry
    ~help:"Page-Hinkley drift alarms, by estimator."
    ~labels:[ ("estimator", est) ]
    "contention_serve_audit_alarms_total"

let drift_for t est =
  match Hashtbl.find_opt t.drift_by_estimator est with
  | Some d -> d
  | None ->
      let d =
        Drift.create ~delta:t.config.drift_delta ~lambda:t.config.drift_lambda
          ~min_samples:t.config.drift_min_samples ()
      in
      Hashtbl.add t.drift_by_estimator est d;
      (* Materialise the gauge at 0 so the exposition shows the estimator
         as audited-and-healthy, not merely absent. *)
      Obs.Metric.Gauge.set (m_drift t est) 0.;
      d

let journal_record t (task : task) ~errs ~outcome =
  match t.journal with
  | Some j when Journal.sampled j ~ctx:task.ctx ->
      let opt name conv = function
        | None -> []
        | Some v -> [ (name, conv v) ]
      in
      let mean_err, max_abs =
        match errs with
        | [] -> (0., 0.)
        | errs ->
            let n = float_of_int (List.length errs) in
            ( List.fold_left ( +. ) 0. errs /. n,
              List.fold_left (fun m e -> Float.max m (Float.abs e)) 0. errs )
      in
      Journal.record j
        (Json.Obj
           ([ ("ts", Json.Num (Unix.gettimeofday ())) ]
           @ opt "trace"
               (fun (c : Obs.Span.ctx) ->
                 Json.Str (Obs.Span.id_to_hex c.trace_id))
               task.ctx
           @ [ ("cmd", Json.Str "audit"); ("workload", Json.Str task.digest) ]
           @ opt "shard" (fun s -> Json.Str s) t.shard
           @ [
               ("estimator", Json.Str task.estimator);
               ("outcome", Json.Str outcome);
               ("rows", Json.Num (float_of_int (List.length task.rows)));
               ("mean_err", Json.Num mean_err);
               ("max_abs_err", Json.Num max_abs);
             ]))
  | _ -> ()

(* Replay one served estimate: simulate the same use-case and compare each
   application's estimated period against its simulated average period.
   Rows and simulator results share Usecase.to_list order. *)
let replay t (task : task) =
  let w = task.workload in
  let results, _ =
    Desim.Engine.run ~horizon:t.config.horizon
      ?firing_time:(Exp.Workload.sim_firing_time w task.mask)
      ~procs:w.procs
      (Exp.Workload.sim_apps w task.mask)
  in
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
      Mutex.lock t.mutex;
      t.failed <- t.failed + 1;
      Mutex.unlock t.mutex;
      journal_record t task ~errs:[] ~outcome:"failed"
  | Ok errs ->
      Obs.Metric.Counter.inc (m_total t task.estimator);
      let hist = m_error t task.estimator in
      List.iter (fun e -> Obs.Metric.Histogram.observe hist e) errs;
      let alarmed =
        Mutex.lock t.mutex;
        let drift = drift_for t task.estimator in
        let alarmed =
          List.fold_left (fun a e -> Drift.observe drift e || a) false errs
        in
        t.completed <- t.completed + 1;
        List.iter
          (fun e ->
            t.err_sum <- t.err_sum +. e;
            t.err_n <- t.err_n + 1;
            t.max_abs_err <- Float.max t.max_abs_err (Float.abs e))
          errs;
        Mutex.unlock t.mutex;
        alarmed
      in
      if alarmed then begin
        Obs.Metric.Counter.inc (m_alarms t task.estimator);
        Obs.Metric.Gauge.set (m_drift t task.estimator) 1.
      end;
      journal_record t task ~errs ~outcome:"ok"

let m_margin_total t =
  Obs.Metric.Counter.v ~registry:t.registry
    ~help:"Served admission margins replayed through the simulator."
    "contention_serve_audit_margin_total"

let m_margin_missed t =
  Obs.Metric.Counter.v ~registry:t.registry
    ~help:
      "Margin replays whose simulated period fell outside the served bounds."
    "contention_serve_audit_margin_missed_total"

let margin_journal_record t (task : margin_task) ~observed ~outcome =
  match t.journal with
  | Some j when Journal.sampled j ~ctx:task.m_ctx ->
      let opt name conv = function
        | None -> []
        | Some v -> [ (name, conv v) ]
      in
      Journal.record j
        (Json.Obj
           ([ ("ts", Json.Num (Unix.gettimeofday ())) ]
           @ opt "trace"
               (fun (c : Obs.Span.ctx) ->
                 Json.Str (Obs.Span.id_to_hex c.trace_id))
               task.m_ctx
           @ [
               ("cmd", Json.Str "audit-margin");
               ("workload", Json.Str task.m_digest);
             ]
           @ opt "shard" (fun s -> Json.Str s) t.shard
           @ [
               ("app", Json.Str task.m_app);
               ("confidence", Json.Num task.m_margin.Contention.Margin.confidence);
               ("lo", Json.Num task.m_margin.Contention.Margin.lo);
               ("hi", Json.Num task.m_margin.Contention.Margin.hi);
               ("outcome", Json.Str outcome);
             ]
           @ opt "observed" (fun p -> Json.Num p) observed))
  | _ -> ()

(* Replay one served margin: simulate the admitted population and check the
   application's observed average period against the served interval.  One
   replay is one Bernoulli trial at the margin's confidence — the aggregate
   miss rate is the signal, not any single miss. *)
let process_margin t (task : margin_task) =
  let simulate () =
    let w = task.m_workload in
    let results, _ =
      Desim.Engine.run ~horizon:t.config.horizon
        ?firing_time:(Exp.Workload.sim_firing_time w task.m_mask)
        ~procs:w.procs
        (Exp.Workload.sim_apps w task.m_mask)
    in
    (* Results share Usecase.to_list order with the mask. *)
    let names = Exp.Workload.names w in
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
      simulate
  in
  match
    match task.m_ctx with
    | None -> run ()
    | Some c -> Obs.Span.with_context c run
  with
  | exception e ->
      Obs.Metric.Counter.inc t.m_failed;
      Mutex.lock t.mutex;
      t.failed <- t.failed + 1;
      Mutex.unlock t.mutex;
      margin_journal_record t task ~observed:None
        ~outcome:(Printf.sprintf "failed: %s" (Printexc.to_string e))
  | observed when not (Float.is_finite observed && observed > 0.) ->
      Obs.Metric.Counter.inc t.m_failed;
      Mutex.lock t.mutex;
      t.failed <- t.failed + 1;
      Mutex.unlock t.mutex;
      margin_journal_record t task ~observed:None ~outcome:"degenerate"
  | observed ->
      let covered = Contention.Margin.covers task.m_margin observed in
      Obs.Metric.Counter.inc (m_margin_total t);
      if not covered then Obs.Metric.Counter.inc (m_margin_missed t);
      Mutex.lock t.mutex;
      t.margin_checked <- t.margin_checked + 1;
      if not covered then t.margin_missed <- t.margin_missed + 1;
      Mutex.unlock t.mutex;
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

let create ?(config = default_config) ~registry ?journal ?shard () =
  if not (Float.is_finite config.horizon && config.horizon > 0.) then
    invalid_arg
      (Printf.sprintf "Serve.Audit.create: horizon %g is not finite and positive"
         config.horizon);
  let config =
    { config with sample_every = max 1 config.sample_every;
      queue_capacity = max 1 config.queue_capacity }
  in
  let t =
    {
      config;
      registry;
      journal;
      shard;
      queue = Queue.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      closed = false;
      in_flight = false;
      head = Atomic.make 0;
      submitted = 0;
      completed = 0;
      dropped = 0;
      failed = 0;
      err_sum = 0.;
      err_n = 0;
      max_abs_err = 0.;
      margin_checked = 0;
      margin_missed = 0;
      drift_by_estimator = Hashtbl.create 4;
      m_dropped =
        Obs.Metric.Counter.v ~registry
          ~help:"Audit samples dropped because the audit queue was full."
          "contention_serve_audit_dropped_total";
      m_failed =
        Obs.Metric.Counter.v ~registry
          ~help:"Audit replays that raised or produced no usable period."
          "contention_serve_audit_failed_total";
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
    else if Queue.length t.queue >= t.config.queue_capacity then begin
      t.dropped <- t.dropped + 1;
      `Dropped
    end
    else begin
      Queue.push item t.queue;
      t.submitted <- t.submitted + 1;
      Condition.signal t.cond;
      `Accepted
    end
  in
  Mutex.unlock t.mutex;
  (match verdict with
  | `Dropped -> Obs.Metric.Counter.inc t.m_dropped
  | `Closed | `Accepted -> ());
  verdict = `Accepted

let submit t task = submit_item t (Estimate task)
let submit_margin t task = submit_item t (Margin_check task)

let stats t =
  Mutex.lock t.mutex;
  let alarms =
    Hashtbl.fold (fun _ d acc -> acc + Drift.alarms d) t.drift_by_estimator 0
  in
  let drifting =
    List.sort String.compare
      (Hashtbl.fold
         (fun est d acc -> if Drift.flagged d then est :: acc else acc)
         t.drift_by_estimator [])
  in
  let s =
    {
      Protocol.audit_sample = t.config.sample_every;
      audit_submitted = t.submitted;
      audit_completed = t.completed;
      audit_dropped = t.dropped;
      audit_failed = t.failed;
      audit_mean_err =
        (if t.err_n = 0 then 0. else t.err_sum /. float_of_int t.err_n);
      audit_max_abs_err = t.max_abs_err;
      audit_alarms = alarms;
      audit_drifting = drifting;
      audit_margin_checked = t.margin_checked;
      audit_margin_missed = t.margin_missed;
    }
  in
  Mutex.unlock t.mutex;
  s

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
