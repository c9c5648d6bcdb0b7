type config = {
  host : string;
  port : int option;
  unix_path : string option;
  jobs : int option;
  cache_capacity : int;
  max_line : int;
  max_queue : int;
  hot_threshold : int;
  journal_path : string option;
  journal_sample : int;
  journal_max_bytes : int;
  slo_objective_ms : float;
  slo_target : float;
  shard : string option;
  audit_sample : int;  (* audit 1-in-N served estimates; 0 = off *)
  audit_horizon : float;  (* simulation horizon of audit replays *)
  audit_drift_delta : float;  (* Page-Hinkley per-step slack *)
  audit_drift_lambda : float;  (* Page-Hinkley alarm threshold *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = Some 4557;
    unix_path = None;
    jobs = None;
    cache_capacity = 256;
    max_line = 8 * 1024 * 1024;
    max_queue = 1024;
    hot_threshold = 0;
    journal_path = None;
    journal_sample = 16;
    journal_max_bytes = 8 * 1024 * 1024;
    slo_objective_ms = 50.;
    slo_target = 0.999;
    shard = None;
    audit_sample = 0;
    audit_horizon = Audit.default_config.Audit.horizon;
    audit_drift_delta = Audit.default_config.Audit.drift_delta;
    audit_drift_lambda = Audit.default_config.Audit.drift_lambda;
  }

type hot_entry = {
  hot_digest : string;
  hot_mask : Contention.Usecase.t;
  hot_estimator : string;
  hot_rows : Protocol.estimate_row list;
}

(* ------------------------------------------------------------------ *)
(* A closeable blocking queue of accepted connections                  *)

module Chan = struct
  type 'a t = {
    q : 'a Queue.t;
    mutex : Mutex.t;
    cond : Condition.t;
    mutable closed : bool;
  }

  let create () =
    {
      q = Queue.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      closed = false;
    }

  let push t x =
    Mutex.lock t.mutex;
    let accepted = not t.closed in
    if accepted then begin
      Queue.push x t.q;
      Condition.signal t.cond
    end;
    Mutex.unlock t.mutex;
    accepted

  (* Blocks until an element or close; keeps draining queued elements after
     close so already accepted connections are still served. *)
  let pop t =
    Mutex.lock t.mutex;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.cond t.mutex
    done;
    let x = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Mutex.unlock t.mutex;
    x

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex

  let length t =
    Mutex.lock t.mutex;
    let n = Queue.length t.q in
    Mutex.unlock t.mutex;
    n
end

(* ------------------------------------------------------------------ *)

type cache_key = string * Contention.Usecase.t * string

(* An estimate-cache entry: the rows, read by the audit and the hot hook,
   the reply's encoded body ({!Protocol.estimate_reply_body}), which a hit
   answers with, and the requests it has served while resident, which
   [on_hot] watches.  Worker domains share it as is. *)
type entry = {
  rows : Protocol.estimate_row list;
  body : string;
  requests : int Atomic.t;
}

type t = {
  config : config;
  store : Store.t;
  cache : (cache_key, entry) Lru.t;
  started : int64;  (* Obs.Clock.now_ns; uptime survives wall-clock steps *)
  workers : int;  (* worker-domain count — the pool's capacity *)
  registry : Obs.Metric.registry;
  (* Per command, its request counter and latency histogram, resolved on
     the command's first request so a series appears with its first
     sample. *)
  m_commands :
    (string * (Obs.Metric.Counter.t * Obs.Metric.Histogram.t)) list Atomic.t;
  m_connections : Obs.Metric.Counter.t;
  m_active : Obs.Metric.Gauge.t;  (* connections being served right now *)
  m_queue_depth : Obs.Metric.Gauge.t;  (* accepted, waiting for a worker *)
  m_cache_hits : Obs.Metric.Counter.t;
  m_cache_misses : Obs.Metric.Counter.t;
  m_shed : Obs.Metric.Counter.t;  (* connections refused: queue full *)
  m_admitted : Obs.Metric.Counter.t;
  m_rejected_candidate : Obs.Metric.Counter.t;
  m_rejected_victim : Obs.Metric.Counter.t;
  m_releases : Obs.Metric.Counter.t;
  m_margin_width : Obs.Metric.Histogram.t;  (* served margins' width/period *)
  m_burn_1m : Obs.Metric.Gauge.t;  (* SLO burn rates, refreshed on scrape *)
  m_burn_1h : Obs.Metric.Gauge.t;
  slo : Slo.t;
  journal : Journal.t option;
  audit : Audit.t option;
  (* Fired with a cache entry's rows when its request count crosses
     [hot_threshold], so the owner (the CLI's cluster glue) can replicate
     them to peers. *)
  on_hot : (hot_entry -> unit) option;
  sessions : (string, Contention.Admission.t) Hashtbl.t;
  sessions_mutex : Mutex.t;
  conns : Unix.file_descr Chan.t;
  listeners : Unix.file_descr list;
  bound_tcp_port : int option;
  (* Connections currently being served, so stop can shut their read side
     down and unblock workers idling on keep-alive clients. *)
  active : (Unix.file_descr, unit) Hashtbl.t;
  active_mutex : Mutex.t;
  stop_requested : bool Atomic.t;  (* a client sent the shutdown command *)
  stopping : bool Atomic.t;  (* stop () has begun *)
  stopped : bool Atomic.t;
  mutable domains : unit Domain.t list;
}

let tcp_port t = t.bound_tcp_port
let audit t = t.audit
let shutdown_requested t = Atomic.get t.stop_requested
let metrics_registry t = t.registry

(* Register a connection as active; refuse when the server is stopping (the
   caller then closes it unserved).  Registration and the stop-side sweep
   take the same mutex, so no connection can slip past the sweep. *)
let register_active t fd =
  Mutex.lock t.active_mutex;
  let accepted = not (Atomic.get t.stopping) in
  if accepted then Hashtbl.replace t.active fd ();
  let n = Hashtbl.length t.active in
  Mutex.unlock t.active_mutex;
  if accepted then Obs.Metric.Gauge.set t.m_active (float_of_int n);
  accepted

let unregister_active t fd =
  Mutex.lock t.active_mutex;
  Hashtbl.remove t.active fd;
  let n = Hashtbl.length t.active in
  Mutex.unlock t.active_mutex;
  Obs.Metric.Gauge.set t.m_active (float_of_int n)

let active_count t =
  Mutex.lock t.active_mutex;
  let n = Hashtbl.length t.active in
  Mutex.unlock t.active_mutex;
  n

(* ------------------------------------------------------------------ *)
(* Session registry                                                    *)

let with_sessions t f =
  Mutex.lock t.sessions_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sessions_mutex) f

let session_count t = with_sessions t (fun () -> Hashtbl.length t.sessions)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let resolve_usecase w = function
  | None -> Ok (Contention.Usecase.full ~napps:(Exp.Workload.num_apps w))
  | Some [] -> Error "usecase must name at least one application"
  | Some names ->
      List.fold_left
        (fun acc name ->
          match acc with
          | Error _ as e -> e
          | Ok mask -> (
              match Exp.Workload.app_index w name with
              | i -> Ok (Contention.Usecase.add i mask)
              | exception Not_found ->
                  Error (Printf.sprintf "unknown application %S" name)))
        (Ok 0) names

let estimate_rows estimator pairs =
  List.map
    (fun (r : Contention.Analysis.estimate) ->
      {
        Protocol.app = r.for_app.graph.Sdf.Graph.name;
        period = r.period;
        isolation_period = r.for_app.isolation_period;
        throughput = Contention.Analysis.throughput r;
      })
    (* The kernel engine over this worker domain's workspace; bit-identical
       to [Contention.Analysis.estimate estimator apps], so cached and fresh
       replies stay equal. *)
    (Contention.Analysis.estimate_prepared
       ~workspace:(Contention.Analysis.shared_workspace ())
       estimator pairs)

(* Bump the request count of a cache entry; its crossing of
   [hot_threshold] (exactly once per residency) hands the rows to [on_hot]
   so the cluster glue can replicate the entry to peers.  A failing hook
   must not fail the request. *)
let note_hot t (hot_digest, hot_mask, hot_estimator) entry =
  match t.on_hot with
  | Some hook
    when t.config.hot_threshold > 0
         && 1 + Atomic.fetch_and_add entry.requests 1 = t.config.hot_threshold -> (
      try hook { hot_digest; hot_mask; hot_estimator; hot_rows = entry.rows }
      with _ -> ())
  | _ -> ()

let error_line fmt =
  Printf.ksprintf (fun msg -> Json.to_string (Protocol.error msg)) fmt

(* Encode [rows] once under the canonical estimator [name] and cache the
   entry under [key], counting its requests in [requests]. *)
let store_entry t ((_, _, name) as key) ~requests rows =
  let entry =
    { rows; body = Protocol.estimate_reply_body ~estimator:name rows; requests }
  in
  Lru.put t.cache key entry;
  entry

(* The estimate reply line: a hit writes its entry's stored bytes, a miss
   estimates, encodes and stores once. *)
let handle_estimate t ~digest ~usecase ~estimator =
  match Store.find t.store digest with
  | None -> error_line "unknown workload digest %S" digest
  | Some { workload = w; caches } -> (
      match resolve_usecase w usecase with
      | Error msg -> error_line "%s" msg
      | Ok mask ->
          let name = Contention.Analysis.estimator_name estimator in
          let key = (digest, mask, name) in
          let cached, entry =
            match Lru.find t.cache key with
            | Some entry ->
                Obs.Metric.Counter.inc t.m_cache_hits;
                (true, entry)
            | None ->
                Obs.Metric.Counter.inc t.m_cache_misses;
                let pairs =
                  List.map
                    (fun i -> (w.apps.(i), caches.(i)))
                    (Contention.Usecase.to_list mask)
                in
                ( false,
                  store_entry t key ~requests:(Atomic.make 0)
                    (estimate_rows estimator pairs) )
          in
          note_hot t key entry;
          (* Shadow audit: hand a head-sampled fraction of served estimates
             (cached or fresh — both were served) to the background replay
             domain, tagged with the originating trace context.  A full
             queue drops the sample; the serve path never blocks on it. *)
          (match t.audit with
          | Some audit when Audit.sampled audit ->
              ignore
                (Audit.submit audit
                   {
                     Audit.digest;
                     workload = w;
                     mask;
                     estimator = name;
                     rows = entry.rows;
                     ctx = Obs.Span.current_context ();
                   })
          | _ -> ());
          Protocol.estimate_reply_line ~cached entry.body)

let handle_explain t ~digest ~usecase ~estimator =
  match Store.find t.store digest with
  | None -> Protocol.error (Printf.sprintf "unknown workload digest %S" digest)
  | Some { workload = w; caches } -> (
      match resolve_usecase w usecase with
      | Error msg -> Protocol.error msg
      | Ok mask ->
          (* The reference pass over the same apps and caches the estimate
             ran on: bit-identical to the kernel-served rows, so the record
             reproduces what was actually answered. *)
          let pairs =
            List.map
              (fun i -> (w.apps.(i), caches.(i)))
              (Contention.Usecase.to_list mask)
          in
          let e = Contention.Explain.compute estimator pairs in
          Protocol.ok (Protocol.explain_reply_to_json e))

(* Whether an estimate of [mask] could have produced [rows]: one per
   application of the mask, in ascending index order, named and isolated
   as in the workload, with a finite positive period and its reciprocal as
   throughput, bit for bit. *)
let estimate_could_produce (w : Exp.Workload.t) mask rows =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let apps = Contention.Usecase.to_list mask in
  List.compare_lengths apps rows = 0
  && List.for_all2
       (fun i (r : Protocol.estimate_row) ->
         let a = w.apps.(i) in
         String.equal r.app a.graph.Sdf.Graph.name
         && same r.isolation_period a.isolation_period
         && Float.is_finite r.period && r.period > 0.
         && same r.throughput (1. /. r.period))
       apps rows

let handle_cache_put t ~digest ~mask ~estimator ~rows =
  (* Accept only entries an estimate request could produce: a stored
     workload, a canonical estimator name, and rows that fit the mask —
     otherwise the entry could never hit, or would answer wrongly. *)
  match Store.find t.store digest with
  | None -> Protocol.error (Printf.sprintf "unknown workload digest %S" digest)
  | Some { workload = w; _ } -> (
      match Contention.Analysis.estimator_of_string estimator with
      | Error msg -> Protocol.error msg
      | Ok est ->
          let napps = Exp.Workload.num_apps w in
          if mask <= 0 || mask >= 1 lsl napps then
            Protocol.error
              (Printf.sprintf "mask %d out of range for %d applications" mask
                 napps)
          else if not (estimate_could_produce w mask rows) then
            Protocol.error
              "cache-put rows must be one per application of the mask, in \
               index order, with the workload's names and isolation periods, \
               a positive period and throughput 1/period"
          else begin
            let name = Contention.Analysis.estimator_name est in
            let key = (digest, mask, name) in
            (* Replacing a resident entry's rows keeps its residency, and
               so its request count. *)
            let requests =
              match Lru.find t.cache key with
              | Some resident -> resident.requests
              | None -> Atomic.make 0
            in
            ignore (store_entry t key ~requests rows);
            Protocol.ok
              (Json.Obj
                 [ ("installed", Json.Bool true); ("estimator", Json.Str name) ])
          end)

(* The session's admitted applications that resolve in this workload — the
   population mix an audit replay of a served margin is simulated under.
   Names admitted from another workload in the same session are skipped:
   they cannot be replayed against [w]. *)
let session_mask w ctl =
  List.fold_left
    (fun mask (name, _, _) ->
      match Exp.Workload.app_index w name with
      | exception Not_found -> mask
      | i -> Contention.Usecase.add i mask)
    (Contention.Usecase.of_list [])
    (Contention.Admission.admitted ctl)

let handle_admit t ~session ~digest ~app ~min_throughput ~confidence
    ~margin_method =
  match Store.find t.store digest with
  | None -> Protocol.error (Printf.sprintf "unknown workload digest %S" digest)
  | Some { workload = w; _ } -> (
      match Exp.Workload.app_index w app with
      | exception Not_found ->
          Protocol.error (Printf.sprintf "unknown application %S" app)
      | i ->
          let a = w.apps.(i) in
          let margin_spec =
            Option.map
              (fun c ->
                {
                  Contention.Admission.default_margin_spec with
                  confidence = c;
                  method_ =
                    Option.value margin_method
                      ~default:Contention.Margin.Z_score;
                })
              confidence
          in
          with_sessions t (fun () ->
              let ctl =
                match Hashtbl.find_opt t.sessions session with
                | Some ctl -> ctl
                | None ->
                    let ctl = Contention.Admission.create ~procs:w.procs () in
                    Hashtbl.add t.sessions session ctl;
                    ctl
              in
              match ctl with
              | ctl when Contention.Admission.procs ctl <> w.procs ->
                  Protocol.error
                    (Printf.sprintf
                       "session %S manages %d processors but the workload has %d"
                       session
                       (Contention.Admission.procs ctl)
                       w.procs)
              | ctl -> (
                  match
                    Contention.Admission.try_admit ?margin:margin_spec ctl a
                      { Contention.Admission.min_throughput }
                  with
                  | exception Invalid_argument msg -> Protocol.error msg
                  | paper_verdict ->
                      let verdict =
                        match paper_verdict with
                        | Contention.Admission.Admitted { margin } ->
                            Protocol.Admitted
                              {
                                throughput =
                                  Contention.Admission.estimated_throughput ctl
                                    app;
                                margin;
                              }
                        | Contention.Admission.Rejected_candidate
                            { estimated; required } ->
                            Protocol.Rejected_candidate { estimated; required }
                        | Contention.Admission.Rejected_victim
                            { app = victim; estimated; required } ->
                            Protocol.Rejected_victim
                              { victim; estimated; required }
                      in
                      Obs.Metric.Counter.inc
                        (match verdict with
                        | Protocol.Admitted _ -> t.m_admitted
                        | Protocol.Rejected_candidate _ -> t.m_rejected_candidate
                        | Protocol.Rejected_victim _ -> t.m_rejected_victim);
                      (match verdict with
                      | Protocol.Admitted { margin = Some m; _ } -> (
                          Obs.Metric.Histogram.observe t.m_margin_width
                            (Contention.Margin.rel_width m);
                          (* Sampled margins get the same shadow-audit
                             treatment as estimates: replay the admitted mix
                             and test coverage of the served interval. *)
                          match t.audit with
                          | Some audit when Audit.sampled audit ->
                              ignore
                                (Audit.submit_margin audit
                                   {
                                     Audit.m_digest = digest;
                                     m_workload = w;
                                     m_mask = session_mask w ctl;
                                     m_app = app;
                                     m_margin = m;
                                     m_ctx = Obs.Span.current_context ();
                                   })
                          | _ -> ())
                      | _ -> ());
                      Protocol.ok (Protocol.verdict_to_json verdict))))

let handle_release t ~session ~app =
  with_sessions t (fun () ->
      match Hashtbl.find_opt t.sessions session with
      | None -> Protocol.error (Printf.sprintf "unknown session %S" session)
      | Some ctl -> (
          (* Total: an unknown app id is an error reply, never an exception
             escaping the worker (the stale-release wirefuzz contract). *)
          match Contention.Admission.release ctl app with
          | Ok () ->
              Obs.Metric.Counter.inc t.m_releases;
              Protocol.ok
                (Json.Obj
                   [ ("released", Json.Str app); ("session", Json.Str session) ])
          | Error _ ->
              Protocol.error
                (Printf.sprintf "application %S is not admitted in session %S"
                   app session)))

(* The burn gauges are computed, not incremented: refresh them from the
   ring whenever somebody looks (stats or a Prometheus scrape). *)
let refresh_slo_gauges t (burn_1m, burn_1h) =
  Obs.Metric.Gauge.set t.m_burn_1m burn_1m;
  Obs.Metric.Gauge.set t.m_burn_1h burn_1h

(* Request counts, their total and the latency sample count all come from
   one read of each command's histogram count, so they agree. *)
let handle_stats t =
  let slo = Slo.snapshot t.slo in
  refresh_slo_gauges t (slo.burn_1m, slo.burn_1h);
  let count c = int_of_float (Obs.Metric.Counter.value c) in
  let mean ~sum n = if n = 0 then 0. else sum /. float_of_int n in
  let requests, latency_sum =
    List.fold_left
      (fun (reqs, sum) (cmd, (_, seconds)) ->
        ( (cmd, Obs.Metric.Histogram.count seconds) :: reqs,
          sum +. Obs.Metric.Histogram.sum seconds ))
      ([], 0.) (Atomic.get t.m_commands)
  in
  let requests_total = List.fold_left (fun n (_, c) -> n + c) 0 requests in
  let margins_served = Obs.Metric.Histogram.count t.m_margin_width in
  Protocol.ok
    (Protocol.stats_reply_to_json
       {
         Protocol.uptime_s = Obs.Clock.elapsed_s ~since:t.started;
         connections = count t.m_connections;
         requests = List.sort compare requests;
         requests_total;
         workloads = Store.count t.store;
         sessions = session_count t;
         cache_entries = Lru.length t.cache;
         cache_capacity = Lru.capacity t.cache;
         cache_hits = count t.m_cache_hits;
         cache_misses = count t.m_cache_misses;
         active_connections = active_count t;
         workers = t.workers;
         queue_capacity = t.config.max_queue;
         shed = count t.m_shed;
         admitted = count t.m_admitted;
         rejected_candidate = count t.m_rejected_candidate;
         rejected_victim = count t.m_rejected_victim;
         released = count t.m_releases;
         margins_served;
         margin_mean_rel_width =
           mean ~sum:(Obs.Metric.Histogram.sum t.m_margin_width) margins_served;
         latency_mean_us = 1e6 *. mean ~sum:latency_sum requests_total;
         latency_p50_us = slo.latency_p50_us;
         latency_p90_us = slo.latency_p90_us;
         latency_p99_us = slo.latency_p99_us;
         latency_max_us = slo.latency_max_us;
         latency_samples = requests_total;
         slo_objective_ms = slo.objective_ms;
         slo_target = slo.target;
         slo_burn_1m = slo.burn_1m;
         slo_burn_1h = slo.burn_1h;
         audit =
           (match t.audit with
           | None -> Protocol.no_audit
           | Some audit -> Audit.stats audit);
       })

(* The reply line to one request: an estimate's comes back as bytes, every
   other command encodes its reply tree once. *)
let dispatch t (request : Protocol.request) =
  let line = Json.to_string in
  match request with
  | Protocol.Ping -> line (Protocol.ok (Json.Obj [ ("pong", Json.Bool true) ]))
  | Protocol.Upload { payload } -> (
      match Exp.Workload.of_string payload with
      | Error msg -> error_line "bad workload: %s" msg
      | Ok w ->
          let digest = Store.add t.store w in
          line
            (Protocol.ok
               (Protocol.upload_reply_to_json
                  {
                    Protocol.digest;
                    apps = Array.to_list (Exp.Workload.names w);
                    procs = w.procs;
                  })))
  | Protocol.Estimate { digest; usecase; estimator } ->
      handle_estimate t ~digest ~usecase ~estimator
  | Protocol.Explain { digest; usecase; estimator } ->
      line (handle_explain t ~digest ~usecase ~estimator)
  | Protocol.Admit { session; digest; app; min_throughput; confidence; margin_method }
    ->
      line
        (handle_admit t ~session ~digest ~app ~min_throughput ~confidence
           ~margin_method)
  | Protocol.Release { session; app } -> line (handle_release t ~session ~app)
  | Protocol.Cache_put { digest; mask; estimator; rows } ->
      line (handle_cache_put t ~digest ~mask ~estimator ~rows)
  | Protocol.Stats -> line (handle_stats t)
  | Protocol.Metrics ->
      refresh_slo_gauges t (Slo.burn_rates t.slo);
      line
        (Protocol.ok
           (Protocol.metrics_reply_to_json
              { Protocol.prometheus = Obs.Prometheus.expose t.registry }))
  | Protocol.Shutdown ->
      Atomic.set t.stop_requested true;
      line (Protocol.ok (Json.Obj [ ("stopping", Json.Bool true) ]))

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)

(* One journal line: everything needed to reconstruct what this request
   experienced and join it against a merged trace by trace id.  The upload
   payload is a whole workload file, so its digest is taken from the reply
   rather than the request.  The reply is read back from its line: only a
   journalled request pays for that parse. *)
let journal_record j ~ctx ~cmd ~digest ~queue_depth ~reply ~latency_s =
  let outcome, payload =
    match
      Protocol.classify_reply
        (Result.value (Json.of_string reply) ~default:Json.Null)
    with
    | Protocol.Reply_ok p -> ("ok", Some p)
    | Protocol.Reply_error _ -> ("error", None)
    | Protocol.Reply_shed _ -> ("shed", None)
  in
  let digest =
    match digest with
    | Some _ as d -> d
    | None ->
        Option.bind payload (fun p ->
            Option.bind (Json.member "digest" p) Json.get_str)
  in
  let opt name conv = function
    | None -> []
    | Some v -> [ (name, conv v) ]
  in
  Journal.record j ~ctx ~cmd ?workload:digest
    ([
       ("queue_depth", Json.Num (float_of_int queue_depth));
       ("outcome", Json.Str outcome);
     ]
    @ opt "cached"
        (fun b -> Json.Bool b)
        (Option.bind payload (fun p ->
             Option.bind (Json.member "cached" p) Json.get_bool))
    @ opt "confidence"
        (fun c -> Json.Num c)
        (Option.bind payload (fun p ->
             Option.bind (Json.member "margin" p) (fun m ->
                 Option.bind (Json.member "confidence" m) Json.get_num)))
    @ opt "verdict"
        (fun v -> Json.Str v)
        (Option.bind payload (fun p ->
             Option.bind (Json.member "verdict" p) Json.get_str))
    @ [ ("latency_us", Json.Num (latency_s *. 1e6)) ])

let command_metrics t cmd =
  match List.assoc_opt cmd (Atomic.get t.m_commands) with
  | Some m -> m
  | None ->
      let m =
        ( Obs.Metric.Counter.v ~registry:t.registry
            ~help:"Requests served, by command." ~labels:[ ("cmd", cmd) ]
            "contention_serve_requests_total",
          Obs.Metric.Histogram.v ~registry:t.registry
            ~help:"Request latency in seconds, by command."
            ~labels:[ ("cmd", cmd) ] "contention_serve_request_seconds" )
      in
      (* [v] is get-or-create, so a domain racing this one resolves the
         same handles.  Retry until the command is listed: [stats] reads
         only listed commands, and a lost update would drop this one. *)
      let rec publish () =
        let known = Atomic.get t.m_commands in
        if
          not
            (List.mem_assoc cmd known
            || Atomic.compare_and_set t.m_commands known ((cmd, m) :: known))
        then publish ()
      in
      publish ();
      m

(* The request's span name, ["serve." ^ Protocol.cmd_name r], without
   building it per request. *)
let span_name : Protocol.request -> string = function
  | Ping -> "serve.ping"
  | Upload _ -> "serve.upload"
  | Estimate _ -> "serve.estimate"
  | Explain _ -> "serve.explain"
  | Admit _ -> "serve.admit"
  | Release _ -> "serve.release"
  | Cache_put _ -> "serve.cache-put"
  | Stats -> "serve.stats"
  | Metrics -> "serve.metrics"
  | Shutdown -> "serve.shutdown"

(* One request line through the full parse-and-dispatch path, returning the
   reply line.  Shared by the connection workers and exposed as the
   in-process fuzzing entry ({!Check.Wirefuzz}): whatever bytes come in, the
   result is a serialized reply envelope, never an exception. *)
let handle_line t line =
  let queue_depth = Chan.length t.conns in
  let t0 = Obs.Clock.now_ns () in
  (* [json] is the request's frame, [Null] when it did not decode. *)
  let cmd, ctx, json, reply =
    match Json.of_string line with
    | Error msg -> ("invalid", None, Json.Null, error_line "bad frame: %s" msg)
    | Ok json -> (
        match Protocol.request_of_json json with
        | Error msg ->
            ("invalid", None, Json.Null, error_line "bad request: %s" msg)
        | Ok request -> (
            let cmd = Protocol.cmd_name request in
            (* The trace envelope re-establishes the caller's context here,
               so the serve span (and anything under it) links back to the
               client's span across the process boundary.  Malformed trace
               decorations read as None — they never fail the request. *)
            let ctx = Protocol.trace_of_request json in
            let run () =
              Obs.Span.with_ ~name:(span_name request)
                ~args:(fun () -> [ ("cmd", cmd) ])
                (fun () -> dispatch t request)
            in
            let body () =
              match ctx with
              | None -> run ()
              | Some c -> Obs.Span.with_context c run
            in
            match body () with
            | reply -> (cmd, ctx, json, reply)
            | exception e ->
                (* A dispatch bug must never take the daemon down with
                   the connection. *)
                ( cmd,
                  ctx,
                  json,
                  error_line "internal error: %s" (Printexc.to_string e) )))
  in
  let latency_s = Obs.Clock.elapsed_s ~since:t0 in
  Slo.record t.slo ~latency_s;
  let requests, seconds = command_metrics t cmd in
  Obs.Metric.Counter.inc requests;
  Obs.Metric.Histogram.observe seconds latency_s;
  (match t.journal with
  | Some j when Journal.sampled j ~ctx ->
      (* An upload's [workload] member is its payload, not a digest. *)
      let digest =
        if cmd = "upload" then None
        else Option.bind (Json.member "workload" json) Json.get_str
      in
      journal_record j ~ctx ~cmd ~digest ~queue_depth ~reply ~latency_s
  | _ -> ());
  reply

let handle_connection t fd =
  Obs.Metric.Counter.inc t.m_connections;
  let reader = Wire.reader ~max_line:t.config.max_line fd in
  let rec serve () =
    (* Keep answering until the peer hangs up; stop () unblocks us by
       shutting the read side down, which reads as EOF here. *)
    match Wire.read_frame reader with
    | Wire.Eof -> ()
    | Wire.Too_long -> Wire.write_line fd (error_line "request line too long")
    | Wire.Line "" -> serve ()
    | Wire.Line line ->
        Wire.write_line fd (handle_line t line);
        serve ()
  in
  (match serve () with
  | () -> ()
  | exception Unix.Unix_error _ ->
      (* Peer vanished mid-reply (EPIPE, reset…): just drop the
         connection. *)
      ())

let worker t () =
  let rec loop () =
    match Chan.pop t.conns with
    | None -> ()
    | Some fd ->
        Obs.Metric.Gauge.set t.m_queue_depth
          (float_of_int (Chan.length t.conns));
        if register_active t fd then begin
          (match handle_connection t fd with
          | () -> ()
          | exception _ -> ());
          unregister_active t fd
        end;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        loop ()
  in
  loop ()

(* Backpressure: the accept queue is bounded.  A connection arriving when
   [max_queue] connections are already waiting for a worker is answered with
   one shed frame and closed — the daemon's load-shedding verdict, preferred
   over unbounded queueing (latency collapse) or silent drops (client
   timeouts).  The write is a single small frame into a fresh socket buffer,
   so it cannot block the acceptor. *)
let shed_connection t fd ~queue_depth =
  Obs.Metric.Counter.inc t.m_shed;
  (* A shed request never met the latency objective: it burns budget. *)
  Slo.record_bad t.slo;
  (try Wire.write_line fd (Json.to_string (Protocol.shed ~queue_depth))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let acceptor t listener () =
  let rec loop () =
    (* Re-checked after every wake-up: stop () nudges a blocked accept with
       a shutdown plus a self-connection, since merely closing the listener
       from another domain does not unblock accept on Linux. *)
    if Atomic.get t.stopping then ()
    else
      match Unix.accept ~cloexec:true listener with
      | fd, _ ->
          let depth = Chan.length t.conns in
          if t.config.max_queue > 0 && depth >= t.config.max_queue then
            shed_connection t fd ~queue_depth:depth
          else if Chan.push t.conns fd then
            Obs.Metric.Gauge.set t.m_queue_depth
              (float_of_int (Chan.length t.conns))
          else (try Unix.close fd with Unix.Unix_error _ -> ());
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          (* Out of descriptors: back off instead of spinning or dying. *)
          Unix.sleepf 0.05;
          loop ()
      | exception Unix.Unix_error _ ->
          (* The listener was shut down or closed by stop: exit. *)
          ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

(* Every setting [start] refuses, checked before anything is bound: a
   refused config leaves no socket open and no socket file behind. *)
let check_config c =
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Serve.Server.start: " ^ m)) fmt
  in
  let finite_positive field v =
    if not (Float.is_finite v && v > 0.) then
      fail "%s %g is not finite and positive" field v
  in
  if c.cache_capacity < 1 then fail "cache_capacity < 1";
  if c.port = None && c.unix_path = None then
    fail "no TCP port and no Unix socket";
  (match c.jobs with Some j when j < 1 -> fail "jobs < 1" | _ -> ());
  finite_positive "slo_objective_ms" c.slo_objective_ms;
  (* At 1 the error budget is empty: any slow request would burn ~1e9x. *)
  if not (c.slo_target > 0. && c.slo_target < 1.) then
    fail "slo_target %g is not in (0, 1)" c.slo_target;
  finite_positive "audit_horizon" c.audit_horizon;
  finite_positive "audit_drift_lambda" c.audit_drift_lambda;
  if not (Float.is_finite c.audit_drift_delta && c.audit_drift_delta >= 0.) then
    fail "audit_drift_delta %g is not finite and non-negative"
      c.audit_drift_delta

let start ?on_hot ?(config = default_config) () =
  check_config config;
  let jobs =
    match config.jobs with Some j -> j | None -> Exp.Pool.default_jobs ()
  in
  (* A worker writing to a hung-up client must get EPIPE, not a fatal
     signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Each server owns its registry: two servers in one process (the tests
     start several) must not see each other's series. *)
  let registry = Obs.Metric.create_registry () in
  let m_active =
    Obs.Metric.Gauge.v ~registry
      ~help:"Connections being served right now."
      "contention_serve_active_connections"
  in
  let m_queue_depth =
    Obs.Metric.Gauge.v ~registry
      ~help:"Accepted connections waiting for a worker domain."
      "contention_serve_queue_depth"
  in
  let m_shed =
    Obs.Metric.Counter.v ~registry
      ~help:"Connections refused with a shed verdict (accept queue full)."
      "contention_serve_shed_total"
  in
  let m_cache_hits =
    Obs.Metric.Counter.v ~registry
      ~help:"Estimate-cache lookups answered from the cache."
      "contention_serve_cache_hits_total"
  in
  let m_cache_misses =
    Obs.Metric.Counter.v ~registry
      ~help:"Estimate-cache lookups that ran the analysis."
      "contention_serve_cache_misses_total"
  in
  let admissions verdict =
    Obs.Metric.Counter.v ~registry ~help:"Admission verdicts, by verdict."
      ~labels:[ ("verdict", verdict) ] "contention_serve_admissions_total"
  in
  let m_burn_1m =
    Obs.Metric.Gauge.v ~registry
      ~help:"SLO error-budget burn rate over the trailing minute."
      "contention_serve_slo_burn_1m"
  in
  let m_burn_1h =
    Obs.Metric.Gauge.v ~registry
      ~help:"SLO error-budget burn rate over the trailing hour."
      "contention_serve_slo_burn_1h"
  in
  Obs.Metric.Gauge.set
    (Obs.Metric.Gauge.v ~registry
       ~help:"Latency objective requests are judged by, in milliseconds."
       "contention_serve_slo_objective_ms")
    config.slo_objective_ms;
  Obs.Metric.Gauge.set
    (Obs.Metric.Gauge.v ~registry
       ~help:"Worker domains — the pool's capacity."
       "contention_serve_workers")
    (float_of_int jobs);
  (* Acquire in one order — journal, TCP listener, Unix listener, audit
     domain — and when a step raises, release what is already held, newest
     first, then re-raise: a failed start leaves no open socket, no socket
     file and no open journal. *)
  let held = ref [] in
  let holding release = held := release :: !held in
  let journal, tcp, unix_listener, audit =
    try
      let journal =
        Option.map
          (Journal.create ~sample_every:config.journal_sample
             ~max_bytes:config.journal_max_bytes ?shard:config.shard)
          config.journal_path
      in
      Option.iter (fun j -> holding (fun () -> Journal.close j)) journal;
      let socket domain =
        let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
        holding (fun () -> Unix.close fd);
        fd
      in
      let tcp =
        Option.map
          (fun port ->
            let fd = socket Unix.PF_INET in
            Unix.setsockopt fd Unix.SO_REUSEADDR true;
            Unix.bind fd
              (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, port));
            Unix.listen fd 64;
            let bound =
              match Unix.getsockname fd with
              | Unix.ADDR_INET (_, p) -> p
              | Unix.ADDR_UNIX _ -> port
            in
            (fd, bound))
          config.port
      in
      let unix_listener =
        Option.map
          (fun path ->
            if Sys.file_exists path then Sys.remove path;
            let fd = socket Unix.PF_UNIX in
            Unix.bind fd (Unix.ADDR_UNIX path);
            holding (fun () -> Sys.remove path);
            Unix.listen fd 64;
            fd)
          config.unix_path
      in
      let audit =
        if config.audit_sample <= 0 then None
        else
          Some
            (Audit.create
               ~config:
                 {
                   Audit.default_config with
                   Audit.sample_every = config.audit_sample;
                   horizon = config.audit_horizon;
                   drift_delta = config.audit_drift_delta;
                   drift_lambda = config.audit_drift_lambda;
                 }
               ~registry ?journal ())
      in
      (journal, tcp, unix_listener, audit)
    with e ->
      List.iter
        (fun release ->
          try release () with Unix.Unix_error _ | Sys_error _ -> ())
        !held;
      raise e
  in
  let listeners =
    (match tcp with Some (fd, _) -> [ fd ] | None -> [])
    @ (match unix_listener with Some fd -> [ fd ] | None -> [])
  in
  let t =
    {
      config;
      store = Store.create ();
      cache = Lru.create ~capacity:config.cache_capacity;
      started = Obs.Clock.now_ns ();
      workers = jobs;
      registry;
      m_commands = Atomic.make [];
      m_connections =
        Obs.Metric.Counter.v ~registry ~help:"Connections accepted and served."
          "contention_serve_connections_total";
      m_active;
      m_queue_depth;
      m_shed;
      m_admitted = admissions "admitted";
      m_rejected_candidate = admissions "rejected-candidate";
      m_rejected_victim = admissions "rejected-victim";
      m_releases =
        Obs.Metric.Counter.v ~registry ~help:"Admitted applications released."
          "contention_serve_releases_total";
      m_margin_width =
        Obs.Metric.Histogram.v ~registry
          ~help:"Relative width (width/period) of served admission margins."
          "contention_serve_margin_rel_width";
      m_burn_1m;
      m_burn_1h;
      slo =
        Slo.create ~objective_ms:config.slo_objective_ms
          ~target:config.slo_target ();
      journal;
      audit;
      m_cache_hits;
      m_cache_misses;
      on_hot;
      sessions = Hashtbl.create 8;
      sessions_mutex = Mutex.create ();
      conns = Chan.create ();
      listeners;
      bound_tcp_port = Option.map snd tcp;
      active = Hashtbl.create 16;
      active_mutex = Mutex.create ();
      stop_requested = Atomic.make false;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      domains = [];
    }
  in
  let workers = List.init jobs (fun _ -> Domain.spawn (worker t)) in
  let acceptors = List.map (fun l -> Domain.spawn (acceptor t l)) listeners in
  t.domains <- workers @ acceptors;
  t

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* Order matters: flag first (new connections are refused at
       registration), then listeners (acceptors exit), then the queue (idle
       workers exit after draining), then unblock workers parked on idle
       connections. *)
    Atomic.set t.stop_requested true;
    Mutex.lock t.active_mutex;
    Atomic.set t.stopping true;
    Hashtbl.iter
      (fun fd () ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      t.active;
    Mutex.unlock t.active_mutex;
    (* Closing a listening socket from this domain does not unblock an
       accept parked on it in an acceptor domain (Linux keeps the accept
       waiting on the old file description).  Shut the listeners down —
       which does wake a blocked TCP accept — and additionally poke each
       address with a throwaway connection in case shutdown is a no-op for
       the socket family.  The acceptors re-check [t.stopping] on every
       wake-up, so any nudge suffices. *)
    List.iter
      (fun l -> try Unix.shutdown l Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.listeners;
    let nudge addr =
      match Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr)
              Unix.SOCK_STREAM 0 with
      | fd ->
          (try Unix.connect fd addr with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ()
    in
    Option.iter
      (fun port ->
        nudge (Unix.ADDR_INET (Unix.inet_addr_of_string t.config.host, port)))
      t.bound_tcp_port;
    Option.iter (fun path -> nudge (Unix.ADDR_UNIX path)) t.config.unix_path;
    List.iter
      (fun l -> try Unix.close l with Unix.Unix_error _ -> ())
      t.listeners;
    Chan.close t.conns;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* Finish queued audit replays (they may still journal) before the
       journal closes under them. *)
    Option.iter Audit.stop t.audit;
    Option.iter Journal.close t.journal;
    match t.config.unix_path with
    | Some path when Sys.file_exists path -> (
        try Sys.remove path with Sys_error _ -> ())
    | _ -> ()
  end

let run_until_stopped ?(poll_interval = 0.1) ?(should_stop = fun () -> false) t =
  let rec loop () =
    if Atomic.get t.stop_requested || should_stop () then stop t
    else begin
      (try Unix.sleepf poll_interval
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()
