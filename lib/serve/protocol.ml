type estimate_row = {
  app : string;
  period : float;
  isolation_period : float;
  throughput : float;
}

type request =
  | Ping
  | Upload of { payload : string }
  | Estimate of {
      digest : string;
      usecase : string list option;
      estimator : Contention.Analysis.estimator;
    }
  | Admit of {
      session : string;
      digest : string;
      app : string;
      min_throughput : float;
      confidence : float option;
      margin_method : Contention.Margin.method_ option;
    }
  | Release of { session : string; app : string }
  | Cache_put of {
      digest : string;
      mask : int;
      estimator : string;
      rows : estimate_row list;
    }
      (** Peer-to-peer: install precomputed estimate rows into the receiving
          server's cache, keyed by [(digest, mask, estimator)].  Sent by the
          cluster router to replicate hot entries. *)
  | Explain of {
      digest : string;
      usecase : string list option;
      estimator : Contention.Analysis.estimator;
    }
  | Stats
  | Metrics
  | Shutdown

let default_session = "default"

let cmd_name = function
  | Ping -> "ping"
  | Upload _ -> "upload"
  | Estimate _ -> "estimate"
  | Explain _ -> "explain"
  | Admit _ -> "admit"
  | Release _ -> "release"
  | Cache_put _ -> "cache-put"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Codecs shared by requests and replies                               *)

let names = Json.list Json.str

let estimator =
  Json.conv Contention.Analysis.estimator_of_string
    Contention.Analysis.estimator_name Json.str

let confidence =
  Json.conv
    (fun c ->
      if Float.is_finite c && c > 0. && c < 1. then Ok c
      else Error "confidence must be in (0,1)")
    Fun.id Json.num

let margin_method =
  Json.conv Contention.Margin.method_of_string
    Contention.Margin.method_to_string Json.str

let margin =
  let open Contention.Margin in
  Json.(
    obj (fun confidence method_ period lo hi mean std samples ->
        { confidence; method_; period; lo; hi; mean; std; samples })
    |> mem "confidence" num (fun m -> m.confidence)
    |> mem "method" margin_method (fun m -> m.method_)
    |> mem "period" num (fun m -> m.period)
    |> mem "lo" num (fun m -> m.lo)
    |> mem "hi" num (fun m -> m.hi)
    |> mem "mean" num (fun m -> m.mean)
    |> mem "std" num (fun m -> m.std)
    |> mem "samples" int (fun m -> m.samples)
    |> finish
    |> conv (fun m -> Result.map (fun () -> m) (validate m)) Fun.id)

let estimate_row =
  Json.(
    obj (fun app period isolation_period throughput ->
        { app; period; isolation_period; throughput })
    |> mem "app" str (fun r -> r.app)
    |> mem "period" num (fun r -> r.period)
    |> mem "isolation_period" num (fun r -> r.isolation_period)
    |> mem "throughput" num (fun r -> r.throughput)
    |> finish)

let rows = Json.list estimate_row

(* ------------------------------------------------------------------ *)
(* Trace context envelope                                              *)

(* The optional "trace" field of a request envelope.  Serialization is
   exact; parsing is deliberately lenient and total: a request is NEVER
   rejected because of its trace field.  A malformed or unparseable trace
   object simply reads as "no context", and unknown members inside it are
   ignored — peers of different versions must interoperate, and a fuzzer
   must not be able to fail a valid command via its trace decoration. *)

let trace_to_json (c : Obs.Span.ctx) =
  Json.Obj
    [
      ("id", Json.Str (Obs.Span.id_to_hex c.trace_id));
      ("parent", Json.Str (Obs.Span.id_to_hex c.parent_span));
      ("sampled", Json.Bool c.sampled);
    ]

let trace_of_request json : Obs.Span.ctx option =
  match Json.member "trace" json with
  | None -> None
  | Some t -> (
      match Option.bind (Json.member "id" t) Json.get_str with
      | None -> None
      | Some id_hex -> (
          match Obs.Span.id_of_hex id_hex with
          | None | Some 0L -> None
          | Some trace_id ->
              let parent_span =
                match
                  Option.bind
                    (Option.bind (Json.member "parent" t) Json.get_str)
                    Obs.Span.id_of_hex
                with
                | Some p -> p
                | None -> 0L
              in
              let sampled =
                match Option.bind (Json.member "sampled" t) Json.get_bool with
                | Some b -> b
                | None -> true
              in
              Some { Obs.Span.trace_id; parent_span; sampled }))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

let request_to_json ?trace req =
  let tail =
    match trace with None -> [] | Some c -> [ ("trace", trace_to_json c) ]
  in
  let members =
    match req with
    | Ping | Stats | Metrics | Shutdown -> tail
    | Upload { payload } -> ("workload", Json.Str payload) :: tail
    | Estimate { digest; usecase; estimator = e }
    | Explain { digest; usecase; estimator = e } ->
        ("workload", Json.Str digest)
        :: (match usecase with
           | None -> []
           | Some apps -> [ ("usecase", Json.encode names apps) ])
        @ ("estimator", Json.encode estimator e) :: tail
    | Admit r ->
        ("session", Json.Str r.session)
        :: ("workload", Json.Str r.digest)
        :: ("app", Json.Str r.app)
        :: ("min_throughput", Json.Num r.min_throughput)
        :: (match r.confidence with
           | None -> []
           | Some c -> [ ("confidence", Json.encode confidence c) ])
        @ (match r.margin_method with
          | None -> []
          | Some m -> [ ("margin_method", Json.encode margin_method m) ])
        @ tail
    | Release { session; app } ->
        ("session", Json.Str session) :: ("app", Json.Str app) :: tail
    | Cache_put { digest; mask; estimator; rows = r } ->
        ("workload", Json.Str digest)
        :: ("mask", Json.encode Json.int mask)
        :: ("estimator", Json.Str estimator)
        :: ("results", Json.encode rows r)
        :: tail
  in
  Json.Obj (("cmd", Json.Str (cmd_name req)) :: members)

let request_of_json json =
  match json with
  | Json.Obj _ -> (
      let* cmd = Json.field "cmd" Json.str json in
      match cmd with
      | "ping" -> Ok Ping
      | "upload" ->
          let* payload = Json.field "workload" Json.str json in
          Ok (Upload { payload })
      | "estimate" | "explain" ->
          let* digest = Json.field "workload" Json.str json in
          let* usecase = Json.opt_field "usecase" names json in
          let* e = Json.opt_field "estimator" estimator json in
          let estimator =
            Option.value e ~default:(Contention.Analysis.Order 2)
          in
          if cmd = "explain" then Ok (Explain { digest; usecase; estimator })
          else Ok (Estimate { digest; usecase; estimator })
      | "admit" ->
          let* session = Json.opt_field "session" Json.str json in
          let* digest = Json.field "workload" Json.str json in
          let* app = Json.field "app" Json.str json in
          let* min_throughput = Json.field "min_throughput" Json.num json in
          let* confidence = Json.opt_field "confidence" confidence json in
          let* margin_method =
            Json.opt_field "margin_method" margin_method json
          in
          if Float.is_finite min_throughput && min_throughput >= 0. then
            let session = Option.value session ~default:default_session in
            Ok
              (Admit
                 { session; digest; app; min_throughput; confidence; margin_method })
          else Error "min_throughput must be finite and non-negative"
      | "release" ->
          let* session = Json.opt_field "session" Json.str json in
          let* app = Json.field "app" Json.str json in
          let session = Option.value session ~default:default_session in
          Ok (Release { session; app })
      | "cache-put" ->
          let* digest = Json.field "workload" Json.str json in
          let* mask = Json.field "mask" Json.int json in
          let* estimator = Json.field "estimator" Json.str json in
          let* rows = Json.field "results" rows json in
          if mask < 0 then Error "mask must be non-negative"
          else Ok (Cache_put { digest; mask; estimator; rows })
      | "stats" -> Ok Stats
      | "metrics" -> Ok Metrics
      | "shutdown" -> Ok Shutdown
      | cmd -> Error (Printf.sprintf "unknown command %S" cmd))
  | _ -> Error "request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)

type upload_reply = { digest : string; apps : string list; procs : int }

type estimate_reply = {
  cached : bool;
  estimator : string;
  rows : estimate_row list;
}

type verdict =
  | Admitted of { throughput : float; margin : Contention.Margin.t option }
  | Rejected_candidate of { estimated : float; required : float }
  | Rejected_victim of { victim : string; estimated : float; required : float }

type audit_stats = {
  audit_sample : int;
  audit_submitted : int;
  audit_completed : int;
  audit_dropped : int;
  audit_failed : int;
  audit_mean_err : float;
  audit_max_abs_err : float;
  audit_alarms : int;
  audit_drifting : string list;
  audit_margin_checked : int;
  audit_margin_missed : int;
}

let no_audit =
  {
    audit_sample = 0;
    audit_submitted = 0;
    audit_completed = 0;
    audit_dropped = 0;
    audit_failed = 0;
    audit_mean_err = 0.;
    audit_max_abs_err = 0.;
    audit_alarms = 0;
    audit_drifting = [];
    audit_margin_checked = 0;
    audit_margin_missed = 0;
  }

type stats_reply = {
  uptime_s : float;
  connections : int;
  requests : (string * int) list;
  requests_total : int;
  workloads : int;
  sessions : int;
  cache_entries : int;
  cache_capacity : int;
  cache_hits : int;
  cache_misses : int;
  active_connections : int;
  workers : int;
  queue_capacity : int;
  shed : int;
  admitted : int;
  rejected_candidate : int;
  rejected_victim : int;
  released : int;
  margins_served : int;
  margin_mean_rel_width : float;
  latency_mean_us : float;
  latency_p50_us : float;
  latency_p90_us : float;
  latency_p99_us : float;
  latency_max_us : float;
  latency_samples : int;
  slo_objective_ms : float;
  slo_target : float;
  slo_burn_1m : float;
  slo_burn_1h : float;
  audit : audit_stats;
}

let cache_hit_rate s =
  let lookups = s.cache_hits + s.cache_misses in
  if lookups = 0 then 0. else float_of_int s.cache_hits /. float_of_int lookups

let pool_occupancy s =
  if s.workers = 0 then 0.
  else float_of_int s.active_connections /. float_of_int s.workers

type metrics_reply = { prometheus : string }

let metrics_reply =
  Json.(
    obj (fun prometheus -> { prometheus })
    |> mem "prometheus" str (fun r -> r.prometheus)
    |> finish)

let upload_reply =
  Json.(
    obj (fun digest apps procs -> { digest; apps; procs })
    |> mem "digest" str (fun r -> r.digest)
    |> mem "apps" names (fun r -> r.apps)
    |> mem "procs" int (fun r -> r.procs)
    |> finish)

let estimate_reply =
  Json.(
    obj (fun cached estimator rows -> { cached; estimator; rows })
    |> mem "cached" bool (fun r -> r.cached)
    |> mem "estimator" str (fun r -> r.estimator)
    |> mem "results" rows (fun r -> r.rows)
    |> finish)

let metrics_reply_to_json = Json.encode metrics_reply
let metrics_reply_of_json = Json.decode metrics_reply
let upload_reply_to_json = Json.encode upload_reply
let upload_reply_of_json = Json.decode upload_reply
let estimate_reply_to_json = Json.encode estimate_reply
let estimate_reply_of_json = Json.decode estimate_reply
let margin_to_json = Json.encode margin
let margin_of_json = Json.decode margin

(* The provenance record of one Figure-4 pass ({!Contention.Explain.t}). *)
module Explain_codec = struct
  open Contention.Explain

  let contender =
    Json.(
      obj (fun c_app c_actor c_p c_mu c_tau ->
          { c_app; c_actor; c_p; c_mu; c_tau })
      |> mem "app" str (fun c -> c.c_app)
      |> mem "actor" int (fun c -> c.c_actor)
      |> mem "p" num (fun c -> c.c_p)
      |> mem "mu" num (fun c -> c.c_mu)
      |> mem "tau" num (fun c -> c.c_tau)
      |> finish)

  let fold_step =
    Json.(
      obj (fun f_app f_actor f_p f_w -> { f_app; f_actor; f_p; f_w })
      |> mem "app" str (fun f -> f.f_app)
      |> mem "actor" int (fun f -> f.f_actor)
      |> mem "p" num (fun f -> f.f_p)
      |> mem "w" num (fun f -> f.f_w)
      |> finish)

  let sandwich =
    Json.(
      obj (fun s_order s_lower s_upper -> { s_order; s_lower; s_upper })
      |> mem "order" int (fun s -> s.s_order)
      |> mem "lower" num (fun s -> s.s_lower)
      |> mem "upper" num (fun s -> s.s_upper)
      |> finish)

  (* An empty fold lineage is omitted, like an absent sandwich. *)
  let actor =
    Json.(
      obj
        (fun a_index a_name a_proc a_exec a_p a_mu a_contenders fold a_sandwich
             a_wait a_response ->
          {
            a_index;
            a_name;
            a_proc;
            a_exec;
            a_p;
            a_mu;
            a_contenders;
            a_fold = Option.value fold ~default:[];
            a_sandwich;
            a_wait;
            a_response;
          })
      |> mem "actor" int (fun a -> a.a_index)
      |> mem "name" str (fun a -> a.a_name)
      |> mem "proc" int (fun a -> a.a_proc)
      |> mem "exec" num (fun a -> a.a_exec)
      |> mem "p" num (fun a -> a.a_p)
      |> mem "mu" num (fun a -> a.a_mu)
      |> mem "contenders" (list contender) (fun a -> a.a_contenders)
      |> opt_mem "fold" (list fold_step) (fun a ->
             match a.a_fold with [] -> None | fold -> Some fold)
      |> opt_mem "sandwich" sandwich (fun a -> a.a_sandwich)
      |> mem "wait" num (fun a -> a.a_wait)
      |> mem "response" num (fun a -> a.a_response)
      |> finish)

  let app =
    Json.(
      obj
        (fun x_app x_isolation x_period x_factor x_throughput x_margin x_actors ->
          {
            x_app;
            x_isolation;
            x_period;
            x_factor;
            x_throughput;
            x_margin;
            x_actors;
          })
      |> mem "app" str (fun x -> x.x_app)
      |> mem "isolation_period" num (fun x -> x.x_isolation)
      |> mem "period" num (fun x -> x.x_period)
      |> mem "contention_factor" num (fun x -> x.x_factor)
      |> mem "throughput" num (fun x -> x.x_throughput)
      |> opt_mem "margin" margin (fun x -> x.x_margin)
      |> mem "actors" (list actor) (fun x -> x.x_actors)
      |> finish)

  let t =
    Json.(
      obj (fun estimator engine usecase apps ->
          { estimator; engine; usecase; apps })
      |> mem "estimator" str (fun e -> e.estimator)
      |> mem "engine" str (fun e -> e.engine)
      |> mem "usecase" names (fun e -> e.usecase)
      |> mem "apps" (list app) (fun e -> e.apps)
      |> finish)
end

let explain_reply_to_json = Json.encode Explain_codec.t
let explain_reply_of_json = Json.decode Explain_codec.t

let verdict_to_json = function
  | Admitted { throughput; margin = m } ->
      Json.Obj
        (("verdict", Json.Str "admitted")
        :: ("throughput", Json.Num throughput)
        ::
        (match m with
        | None -> []
        | Some m -> [ ("margin", Json.encode margin m) ]))
  | Rejected_candidate { estimated; required } ->
      Json.Obj
        [
          ("verdict", Json.Str "rejected-candidate");
          ("estimated", Json.Num estimated);
          ("required", Json.Num required);
        ]
  | Rejected_victim { victim; estimated; required } ->
      Json.Obj
        [
          ("verdict", Json.Str "rejected-victim");
          ("victim", Json.Str victim);
          ("estimated", Json.Num estimated);
          ("required", Json.Num required);
        ]

let verdict_of_json json =
  let* kind = Json.field "verdict" Json.str json in
  match kind with
  | "admitted" ->
      let* throughput = Json.field "throughput" Json.num json in
      let* margin = Json.opt_field "margin" margin json in
      Ok (Admitted { throughput; margin })
  | "rejected-candidate" ->
      let* estimated = Json.field "estimated" Json.num json in
      let* required = Json.field "required" Json.num json in
      Ok (Rejected_candidate { estimated; required })
  | "rejected-victim" ->
      let* victim = Json.field "victim" Json.str json in
      let* estimated = Json.field "estimated" Json.num json in
      let* required = Json.field "required" Json.num json in
      Ok (Rejected_victim { victim; estimated; required })
  | k -> Error (Printf.sprintf "unknown verdict %S" k)

(* Every member reads as zero when absent: servers that predate a counter
   leave it out. *)
let audit_stats =
  let n = Option.value ~default:0 and x = Option.value ~default:0. in
  Json.(
    obj
      (fun sample submitted completed dropped failed mean_err max_abs_err alarms
           drifting checked missed ->
        {
          audit_sample = n sample;
          audit_submitted = n submitted;
          audit_completed = n completed;
          audit_dropped = n dropped;
          audit_failed = n failed;
          audit_mean_err = x mean_err;
          audit_max_abs_err = x max_abs_err;
          audit_alarms = n alarms;
          audit_drifting = Option.value drifting ~default:[];
          audit_margin_checked = n checked;
          audit_margin_missed = n missed;
        })
    |> opt_mem "sample" int (fun a -> Some a.audit_sample)
    |> opt_mem "submitted" int (fun a -> Some a.audit_submitted)
    |> opt_mem "completed" int (fun a -> Some a.audit_completed)
    |> opt_mem "dropped" int (fun a -> Some a.audit_dropped)
    |> opt_mem "failed" int (fun a -> Some a.audit_failed)
    |> opt_mem "mean_err" num (fun a -> Some a.audit_mean_err)
    |> opt_mem "max_abs_err" num (fun a -> Some a.audit_max_abs_err)
    |> opt_mem "alarms" int (fun a -> Some a.audit_alarms)
    |> opt_mem "drifting" names (fun a -> Some a.audit_drifting)
    |> opt_mem "margin_checked" int (fun a -> Some a.audit_margin_checked)
    |> opt_mem "margin_missed" int (fun a -> Some a.audit_margin_missed)
    |> finish)

let stats_reply_to_json s =
  Json.Obj
    [
      ("uptime_s", Json.Num s.uptime_s);
      ("connections", Json.Num (float_of_int s.connections));
      ( "requests",
        Json.Obj
          (("total", Json.Num (float_of_int s.requests_total))
          :: List.map
               (fun (cmd, n) -> (cmd, Json.Num (float_of_int n)))
               s.requests) );
      ("workloads", Json.Num (float_of_int s.workloads));
      ("sessions", Json.Num (float_of_int s.sessions));
      ( "cache",
        Json.Obj
          [
            ("entries", Json.Num (float_of_int s.cache_entries));
            ("capacity", Json.Num (float_of_int s.cache_capacity));
            ("hits", Json.Num (float_of_int s.cache_hits));
            ("misses", Json.Num (float_of_int s.cache_misses));
          ] );
      ( "pool",
        Json.Obj
          [
            ("active_connections", Json.Num (float_of_int s.active_connections));
            ("workers", Json.Num (float_of_int s.workers));
            ("queue_capacity", Json.Num (float_of_int s.queue_capacity));
            ("shed", Json.Num (float_of_int s.shed));
          ] );
      ( "admission",
        Json.Obj
          [
            ("admitted", Json.Num (float_of_int s.admitted));
            ("rejected_candidate", Json.Num (float_of_int s.rejected_candidate));
            ("rejected_victim", Json.Num (float_of_int s.rejected_victim));
            ("released", Json.Num (float_of_int s.released));
            ("margins", Json.Num (float_of_int s.margins_served));
            ("margin_mean_rel_width", Json.Num s.margin_mean_rel_width);
          ] );
      ( "latency_us",
        Json.Obj
          [
            ("mean", Json.Num s.latency_mean_us);
            ("p50", Json.Num s.latency_p50_us);
            ("p90", Json.Num s.latency_p90_us);
            ("p99", Json.Num s.latency_p99_us);
            ("max", Json.Num s.latency_max_us);
            ("samples", Json.Num (float_of_int s.latency_samples));
          ] );
      ( "slo",
        Json.Obj
          [
            ("objective_ms", Json.Num s.slo_objective_ms);
            ("target", Json.Num s.slo_target);
            ("burn_1m", Json.Num s.slo_burn_1m);
            ("burn_1h", Json.Num s.slo_burn_1h);
          ] );
      ("audit", Json.encode audit_stats s.audit);
    ]

let stats_reply_of_json json =
  (* What a server of an older version leaves out (margin accounting, the
     slo and audit blocks) reads as zero, so a new client reads its stats. *)
  let or_ d = function Ok (Some v) -> v | Ok None | Error _ -> d in
  let* uptime_s = Json.field "uptime_s" Json.num json in
  let* connections = Json.field "connections" Json.int json in
  let* requests = Json.field "requests" Json.value json in
  let* requests_total = Json.field "total" Json.int requests in
  let requests =
    List.filter_map
      (fun (k, v) ->
        match Json.decode Json.int v with
        | Ok n when k <> "total" -> Some (k, n)
        | _ -> None)
      (Option.value ~default:[] (Json.get_obj requests))
  in
  let* workloads = Json.field "workloads" Json.int json in
  let* sessions = Json.field "sessions" Json.int json in
  let* cache = Json.field "cache" Json.value json in
  let* cache_entries = Json.field "entries" Json.int cache in
  let* cache_capacity = Json.field "capacity" Json.int cache in
  let* cache_hits = Json.field "hits" Json.int cache in
  let* cache_misses = Json.field "misses" Json.int cache in
  let* pool = Json.field "pool" Json.value json in
  let* active_connections = Json.field "active_connections" Json.int pool in
  let* workers = Json.field "workers" Json.int pool in
  let* queue_capacity = Json.field "queue_capacity" Json.int pool in
  let* shed = Json.field "shed" Json.int pool in
  let* admission = Json.field "admission" Json.value json in
  let* admitted = Json.field "admitted" Json.int admission in
  let* rejected_candidate =
    Json.field "rejected_candidate" Json.int admission
  in
  let* rejected_victim = Json.field "rejected_victim" Json.int admission in
  let* released = Json.field "released" Json.int admission in
  let margins_served = or_ 0 (Json.opt_field "margins" Json.int admission) in
  let margin_mean_rel_width =
    or_ 0. (Json.opt_field "margin_mean_rel_width" Json.num admission)
  in
  let* latency = Json.field "latency_us" Json.value json in
  let* latency_mean_us = Json.field "mean" Json.num latency in
  let* latency_p50_us = Json.field "p50" Json.num latency in
  let* latency_p90_us = Json.field "p90" Json.num latency in
  let* latency_p99_us = Json.field "p99" Json.num latency in
  let* latency_max_us = Json.field "max" Json.num latency in
  let* latency_samples = Json.field "samples" Json.int latency in
  let slo = or_ Json.Null (Json.opt_field "slo" Json.value json) in
  let* audit = Json.opt_field "audit" audit_stats json in
  Ok
    {
      uptime_s;
      connections;
      requests;
      requests_total;
      workloads;
      sessions;
      cache_entries;
      cache_capacity;
      cache_hits;
      cache_misses;
      active_connections;
      workers;
      queue_capacity;
      shed;
      admitted;
      rejected_candidate;
      rejected_victim;
      released;
      margins_served;
      margin_mean_rel_width;
      latency_mean_us;
      latency_p50_us;
      latency_p90_us;
      latency_p99_us;
      latency_max_us;
      latency_samples;
      slo_objective_ms = or_ 0. (Json.opt_field "objective_ms" Json.num slo);
      slo_target = or_ 0. (Json.opt_field "target" Json.num slo);
      slo_burn_1m = or_ 0. (Json.opt_field "burn_1m" Json.num slo);
      slo_burn_1h = or_ 0. (Json.opt_field "burn_1h" Json.num slo);
      audit = Option.value audit ~default:no_audit;
    }

(* ------------------------------------------------------------------ *)
(* Envelope                                                            *)

let ok payload = Json.Obj [ ("ok", payload) ]
let error msg = Json.Obj [ ("error", Json.Str msg) ]

let shed ~queue_depth =
  Json.Obj
    [ ("shed", Json.Obj [ ("queue_depth", Json.Num (float_of_int queue_depth)) ]) ]

type reply =
  | Reply_ok of Json.t
  | Reply_error of string
  | Reply_shed of { queue_depth : int }

let classify_reply json =
  match Json.member "ok" json with
  | Some payload -> Reply_ok payload
  | None -> (
      match Option.bind (Json.member "error" json) Json.get_str with
      | Some msg -> Reply_error msg
      | None -> (
          match Json.member "shed" json with
          | Some payload ->
              let queue_depth =
                Option.value ~default:0
                  (Option.bind (Json.member "queue_depth" payload) Json.get_int)
              in
              Reply_shed { queue_depth }
          | None ->
              Reply_error "malformed reply: neither \"ok\", \"error\" nor \"shed\""))

let unwrap_reply json =
  match classify_reply json with
  | Reply_ok payload -> Ok payload
  | Reply_error msg -> Error msg
  | Reply_shed { queue_depth } ->
      Error
        (Printf.sprintf "shed: server overloaded (queue depth %d)" queue_depth)
