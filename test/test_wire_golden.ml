(* Golden wire frames: the exact bytes the protocol puts on the wire.

   Covered: every request kind, with and without the trace envelope and
   with and without its optional members, plus decoded-then-re-encoded
   spellings of optional members; every reply a live server sends for a
   fixed two-application workload (upload, estimate miss and hit, explain
   per estimator family, the three admission verdicts with and without a
   margin, release, cache-put, shutdown); replies built from fixed records
   (verdicts with each margin method, stats, metrics, an explain record
   carrying margins); the shed and error envelopes; the error replies to
   malformed requests; the error texts of the reply decoders; and an
   old-server stats reply with no slo or audit block, decoded and
   re-encoded.

   The expected frames live in [wire_frames.golden], one
   [label<TAB>frame] line each.  Long explain frames are pinned by their
   MD5 ([label<TAB>md5:<hex>]).  Every frame that decodes must also
   re-encode to the same bytes.

   A second case pins the estimate reply a server assembles from a stored
   body to the codec's encoding of the same reply. *)

module Json = Serve.Json
module P = Serve.Protocol
module A = Contention.Analysis
module E = Contention.Explain
module M = Contention.Margin

let golden_file = "wire_frames.golden"

(* Two applications of three actors each keep the explain frames short. *)
let workload () =
  Exp.Workload.make ~seed:3 ~num_apps:2 ~procs:2
    ~params:
      {
        Sdfgen.Generator.default_params with
        actors_min = 3;
        actors_max = 3;
        extra_channels = 1;
      }
    ()

let trace_on =
  {
    Obs.Span.trace_id = 0x0123456789abcdefL;
    parent_span = 0x0fedcba987654321L;
    sampled = true;
  }

let trace_off = { trace_on with Obs.Span.parent_span = 0L; sampled = false }

let z_margin = M.of_bounds ~confidence:0.95 ~period:1000. ~lo:900. ~hi:1100.

let q_margin =
  M.of_samples ~confidence:0.9 ~period:1000.
    [| 950.; 990.; 1010.; 1100.; 1200. |]

(* [decode] then [encode] must give back the frame's bytes. *)
let reencodes label frame decode encode =
  match Result.bind (Json.of_string frame) decode with
  | Error msg -> Alcotest.failf "%s: does not decode: %s" label msg
  | Ok v ->
      let again = Json.to_string (encode v) in
      if again <> frame then
        Alcotest.failf "%s: re-encodes as\n  %s\nnot\n  %s" label again frame

let request_codec label frame =
  reencodes label frame
    (fun json ->
      Result.map (fun r -> (r, P.trace_of_request json)) (P.request_of_json json))
    (fun (r, trace) -> P.request_to_json ?trace r)

let reply_codec decode encode label frame =
  reencodes label frame
    (fun json -> Result.bind (P.unwrap_reply json) decode)
    (fun v -> P.ok (encode v))

(* --- requests ---------------------------------------------------------- *)

let requests add =
  let rows =
    [
      { P.app = "A"; period = 1150.5; isolation_period = 538.; throughput = 1. /. 1150.5 };
      { P.app = "B"; period = 1e-7; isolation_period = 508.25; throughput = 1e7 };
    ]
  in
  let all =
    [
      ("ping", P.Ping);
      ("upload", P.Upload { payload = "graph A\n\tactor \"a0\" 14\\n\001" });
      ( "estimate",
        P.Estimate { digest = "d0"; usecase = None; estimator = A.Order 2 } );
      ( "estimate/usecase",
        P.Estimate
          { digest = "d0"; usecase = Some [ "A"; "B" ]; estimator = A.Order 7 } );
      ( "estimate/worst-case",
        P.Estimate { digest = "d0"; usecase = Some []; estimator = A.Worst_case } );
      ( "estimate/composability",
        P.Estimate { digest = "d0"; usecase = None; estimator = A.Composability } );
      ( "estimate/exact",
        P.Estimate { digest = "d0"; usecase = None; estimator = A.Exact } );
      ( "explain",
        P.Explain { digest = "d1"; usecase = None; estimator = A.Order 4 } );
      ( "explain/usecase",
        P.Explain { digest = "d1"; usecase = Some [ "B" ]; estimator = A.Order 3 } );
      ( "admit",
        P.Admit
          {
            session = P.default_session;
            digest = "d2";
            app = "A";
            min_throughput = 0.;
            confidence = None;
            margin_method = None;
          } );
      ( "admit/confidence",
        P.Admit
          {
            session = "s";
            digest = "d2";
            app = "B";
            min_throughput = 0.00125;
            confidence = Some 0.95;
            margin_method = None;
          } );
      ( "admit/z-score",
        P.Admit
          {
            session = "s";
            digest = "d2";
            app = "B";
            min_throughput = 1e-9;
            confidence = Some 0.5;
            margin_method = Some M.Z_score;
          } );
      ( "admit/quantile",
        P.Admit
          {
            session = "s";
            digest = "d2";
            app = "B";
            min_throughput = 2.5;
            confidence = Some 0.999;
            margin_method = Some M.Quantile;
          } );
      ( "admit/method-only",
        P.Admit
          {
            session = "s";
            digest = "d2";
            app = "B";
            min_throughput = 1.;
            confidence = None;
            margin_method = Some M.Quantile;
          } );
      ("release", P.Release { session = "s"; app = "A" });
      ("cache-put", P.Cache_put { digest = "d3"; mask = 3; estimator = "o2"; rows });
      ( "cache-put/empty",
        P.Cache_put { digest = "d3"; mask = 1; estimator = "wc"; rows = [] } );
      ("stats", P.Stats);
      ("metrics", P.Metrics);
      ("shutdown", P.Shutdown);
    ]
  in
  List.iter
    (fun (name, r) ->
      List.iter
        (fun (suffix, trace) ->
          let label = "request/" ^ name ^ suffix in
          let frame = Json.to_string (P.request_to_json ?trace r) in
          request_codec label frame;
          add label frame)
        [ ("", None); ("+trace", Some trace_on); ("+trace-unsampled", Some trace_off) ])
    all;
  (* Spellings a client may send, decoded and re-encoded canonically. *)
  List.iter
    (fun (name, frame) ->
      let label = "request-canonical/" ^ name in
      match Result.bind (Json.of_string frame) P.request_of_json with
      | Error msg -> Alcotest.failf "%s: %s" label msg
      | Ok r ->
          let trace =
            Option.bind (Result.to_option (Json.of_string frame)) P.trace_of_request
          in
          add label (Json.to_string (P.request_to_json ?trace r)))
    [
      ("estimate-default", {|{"cmd":"estimate","workload":"d"}|});
      ("estimate-null", {|{"cmd":"estimate","workload":"d","usecase":null,"estimator":null}|});
      ("estimate-alias", {|{"estimator":" O4 ","workload":"d","cmd":"estimate"}|});
      ("estimate-bare-order", {|{"cmd":"estimate","workload":"d","estimator":"6"}|});
      ("explain-order-name", {|{"cmd":"explain","workload":"d","estimator":"order-9"}|});
      ("admit-nulls", {|{"cmd":"admit","session":null,"workload":"d","app":"A","min_throughput":0,"confidence":null,"margin_method":null}|});
      ("admit-alias", {|{"cmd":"admit","workload":"d","app":"A","min_throughput":1e-3,"confidence":0.9,"margin_method":"q"}|});
      ("release-default", {|{"cmd":"release","app":"A"}|});
      ("cache-put-unknown-member", {|{"cmd":"cache-put","workload":"d","mask":2,"estimator":"x","results":[],"extra":1}|});
      ("trace-lenient", {|{"cmd":"ping","trace":{"id":"0123456789abcdef"}}|});
      ("trace-malformed", {|{"cmd":"ping","trace":{"id":"zz","parent":5}}|});
      ("trace-not-object", {|{"cmd":"stats","trace":7}|});
    ]

(* --- live replies ------------------------------------------------------ *)

let with_server f =
  let config =
    {
      Serve.Server.default_config with
      port = Some 0;
      unix_path = None;
      jobs = Some 1;
      cache_capacity = 16;
      audit_sample = 0;
      journal_path = None;
    }
  in
  let server = Serve.Server.start ~config () in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) (fun () -> f server)

let explain_frame add label frame =
  reply_codec P.explain_reply_of_json P.explain_reply_to_json label frame;
  add label ("md5:" ^ Digest.to_hex (Digest.string frame))

let live add =
  let w = workload () in
  with_server (fun server ->
      let send r = Serve.Server.handle_line server (Json.to_string (P.request_to_json r)) in
      let upload = send (P.Upload { payload = Exp.Workload.to_string w }) in
      reply_codec P.upload_reply_of_json P.upload_reply_to_json "reply/upload" upload;
      add "reply/upload" upload;
      let digest =
        match Result.bind (Json.of_string upload) P.unwrap_reply with
        | Ok p -> (
            match P.upload_reply_of_json p with
            | Ok u -> u.P.digest
            | Error msg -> Alcotest.failf "upload reply: %s" msg)
        | Error msg -> Alcotest.failf "upload: %s" msg
      in
      let estimate label ?usecase estimator =
        let frame = send (P.Estimate { digest; usecase; estimator }) in
        reply_codec P.estimate_reply_of_json P.estimate_reply_to_json label frame;
        add label frame
      in
      estimate "reply/estimate-miss" (A.Order 2);
      estimate "reply/estimate-hit" (A.Order 2);
      estimate "reply/estimate-usecase" ~usecase:[ "B" ] A.Worst_case;
      estimate "reply/estimate-composability" A.Composability;
      estimate "reply/estimate-exact" ~usecase:[ "A"; "B" ] A.Exact;
      (* Explain: one record verbatim, the rest by digest. *)
      let wc = send (P.Explain { digest; usecase = None; estimator = A.Worst_case }) in
      reply_codec P.explain_reply_of_json P.explain_reply_to_json "reply/explain-worst-case" wc;
      add "reply/explain-worst-case" wc;
      List.iter
        (fun (name, usecase, estimator) ->
          explain_frame add ("reply/explain-" ^ name)
            (send (P.Explain { digest; usecase; estimator })))
        [
          ("second-order", None, A.Order 2);
          ("order-3", Some [ "B" ], A.Order 3);
          ("composability", None, A.Composability);
          ("exact", None, A.Exact);
        ];
      (* Admission: each verdict, with and without a margin. *)
      let admit label ~session ~app ~min_throughput ?confidence ?margin_method () =
        let frame =
          send
            (P.Admit { session; digest; app; min_throughput; confidence; margin_method })
        in
        add label frame;
        match Result.bind (Json.of_string frame) P.unwrap_reply with
        | Ok payload ->
            reply_codec P.verdict_of_json P.verdict_to_json label frame;
            Result.to_option (P.verdict_of_json payload)
        | Error _ -> None
      in
      let alone =
        match admit "reply/admitted" ~session:"s1" ~app:"A" ~min_throughput:0. () with
        | Some (P.Admitted { throughput; _ }) -> throughput
        | _ -> Alcotest.fail "A alone was not admitted"
      in
      let admit label ~session ~app ~min_throughput ?confidence ?margin_method () =
        ignore (admit label ~session ~app ~min_throughput ?confidence ?margin_method ())
      in
      admit "reply/admitted-confidence" ~session:"s2" ~app:"A" ~min_throughput:0.
        ~confidence:0.95 ();
      admit "reply/admitted-z-score" ~session:"s3" ~app:"B" ~min_throughput:0.
        ~confidence:0.8 ~margin_method:M.Z_score ();
      admit "reply/admitted-quantile" ~session:"s4" ~app:"A" ~min_throughput:0.
        ~confidence:0.9 ~margin_method:M.Quantile ();
      admit "reply/rejected-candidate" ~session:"s5" ~app:"A" ~min_throughput:1. ();
      (* A needs nearly its solo throughput, so B's arrival pushes it under. *)
      admit "reply/victim-admitted" ~session:"s6" ~app:"A"
        ~min_throughput:(0.999 *. alone) ();
      admit "reply/rejected-victim" ~session:"s6" ~app:"B" ~min_throughput:0. ();
      admit "reply/rejected-victim-margin" ~session:"s6" ~app:"B" ~min_throughput:0.
        ~confidence:0.9 ~margin_method:M.Quantile ();
      admit "reply/admit-again" ~session:"s1" ~app:"A" ~min_throughput:0. ();
      admit "reply/admit-unknown-app" ~session:"s1" ~app:"Z" ~min_throughput:0. ();
      let release label ~session ~app = add label (send (P.Release { session; app })) in
      release "reply/release" ~session:"s1" ~app:"A";
      release "reply/release-again" ~session:"s1" ~app:"A";
      release "reply/release-unknown-session" ~session:"nope" ~app:"A";
      (* cache-put: rows an estimate could have produced, then served. *)
      let names = Exp.Workload.names w and iso = Exp.Workload.isolation_periods w in
      let rows =
        List.mapi
          (fun i period ->
            {
              P.app = names.(i);
              period;
              isolation_period = iso.(i);
              throughput = 1. /. period;
            })
          [ 1000.; 1250.5 ]
      in
      let cache_put label ~digest ~mask ~estimator =
        add label (send (P.Cache_put { digest; mask; estimator; rows }))
      in
      cache_put "reply/cache-put" ~digest ~mask:3 ~estimator:"o4";
      estimate "reply/estimate-after-cache-put" (A.Order 4);
      cache_put "reply/cache-put-unknown-digest" ~digest:"feedface" ~mask:3
        ~estimator:"o4";
      cache_put "reply/cache-put-bad-estimator" ~digest ~mask:3 ~estimator:"o3";
      cache_put "reply/cache-put-mask-zero" ~digest ~mask:0 ~estimator:"o2";
      cache_put "reply/cache-put-mask-range" ~digest ~mask:4 ~estimator:"o2";
      add "reply/ping" (send P.Ping);
      (* Requests the daemon refuses. *)
      List.iter
        (fun (name, line) ->
          add ("malformed/" ^ name) (Serve.Server.handle_line server line))
        [
          ("missing-cmd", {|{"x":1}|});
          ("cmd-not-string", {|{"cmd":5}|});
          ("unknown-command", {|{"cmd":"frobnicate"}|});
          ("upload-wrong-type", {|{"cmd":"upload","workload":42}|});
          ("upload-missing", {|{"cmd":"upload","payload":"x"}|});
          ("estimate-digest-type", {|{"cmd":"estimate","workload":7}|});
          ("estimate-usecase-type", {|{"cmd":"estimate","workload":"d","usecase":"A"}|});
          ("estimate-usecase-element", {|{"cmd":"estimate","workload":"d","usecase":["A",1]}|});
          ("estimate-estimator-type", {|{"cmd":"estimate","workload":"d","estimator":5}|});
          ("estimate-unknown-estimator", {|{"cmd":"estimate","workload":"d","estimator":"o3"}|});
          ("estimate-order-one", {|{"cmd":"estimate","workload":"d","estimator":"1"}|});
          ("estimate-order-name", {|{"cmd":"estimate","workload":"d","estimator":"order-x"}|});
          ("estimate-order-name-low", {|{"cmd":"explain","workload":"d","estimator":"order-1"}|});
          ("estimate-unknown-digest", {|{"cmd":"estimate","workload":"deadbeef"}|});
          ("explain-unknown-digest", {|{"cmd":"explain","workload":"deadbeef","estimator":"wc"}|});
          ( "estimate-unknown-app",
            Printf.sprintf {|{"cmd":"estimate","workload":"%s","usecase":["Q"]}|} digest );
          ( "estimate-empty-usecase",
            Printf.sprintf {|{"cmd":"estimate","workload":"%s","usecase":[]}|} digest );
          ("admit-session-type", {|{"cmd":"admit","session":3,"workload":"d","app":"A","min_throughput":0}|});
          ("admit-throughput-type", {|{"cmd":"admit","workload":"d","app":"A","min_throughput":"x"}|});
          ("admit-throughput-missing", {|{"cmd":"admit","workload":"d","app":"A"}|});
          ("admit-throughput-negative", {|{"cmd":"admit","workload":"d","app":"A","min_throughput":-1}|});
          ("admit-confidence-high", {|{"cmd":"admit","workload":"d","app":"A","min_throughput":0,"confidence":1.5}|});
          ("admit-confidence-zero", {|{"cmd":"admit","workload":"d","app":"A","min_throughput":0,"confidence":0}|});
          ("admit-confidence-type", {|{"cmd":"admit","workload":"d","app":"A","min_throughput":0,"confidence":"high"}|});
          ("admit-method-unknown", {|{"cmd":"admit","workload":"d","app":"A","min_throughput":0,"confidence":0.9,"margin_method":"median"}|});
          ("admit-method-type", {|{"cmd":"admit","workload":"d","app":"A","min_throughput":0,"margin_method":5}|});
          ("admit-unknown-digest", {|{"cmd":"admit","workload":"d","app":"A","min_throughput":0}|});
          ("release-app-type", {|{"cmd":"release","app":5}|});
          ("cache-put-mask-negative", {|{"cmd":"cache-put","workload":"d","mask":-1,"estimator":"o2","results":[]}|});
          ("cache-put-mask-fraction", {|{"cmd":"cache-put","workload":"d","mask":1.5,"estimator":"o2","results":[]}|});
          ("cache-put-mask-type", {|{"cmd":"cache-put","workload":"d","mask":"x","estimator":"o2","results":[]}|});
          ("cache-put-mask-huge", {|{"cmd":"cache-put","workload":"d","mask":1e16,"estimator":"o2","results":[]}|});
          ("cache-put-results-type", {|{"cmd":"cache-put","workload":"d","mask":1,"estimator":"o2","results":"x"}|});
          ("cache-put-row-missing", {|{"cmd":"cache-put","workload":"d","mask":1,"estimator":"o2","results":[{"app":"A"}]}|});
          ("cache-put-row-type", {|{"cmd":"cache-put","workload":"d","mask":1,"estimator":"o2","results":[{"app":"A","period":"x","isolation_period":1,"throughput":1}]}|});
          ("cache-put-row-not-object", {|{"cmd":"cache-put","workload":"d","mask":1,"estimator":"o2","results":[5]}|});
          ("non-object-array", {|[1,2]|});
          ("non-object-string", {|"ping"|});
          ("non-object-null", {|null|});
          ("bad-frame", {|not json{|});
          ("bad-frame-truncated", {|{"cmd":|});
          ("bad-frame-empty", "");
          ("bad-frame-trailing", {|{"cmd":"ping"} x|});
        ];
      add "reply/shutdown" (send P.Shutdown))

(* --- fixed records ----------------------------------------------------- *)

let stats_record =
  {
    P.uptime_s = 12.5;
    connections = 3;
    requests = [ ("estimate", 5); ("ping", 1) ];
    requests_total = 6;
    workloads = 1;
    sessions = 2;
    cache_entries = 4;
    cache_capacity = 256;
    cache_hits = 3;
    cache_misses = 2;
    active_connections = 1;
    workers = 2;
    queue_capacity = 1024;
    shed = 0;
    admitted = 7;
    rejected_candidate = 1;
    rejected_victim = 2;
    released = 3;
    margins_served = 4;
    margin_mean_rel_width = 0.125;
    latency_mean_us = 21.75;
    latency_p50_us = 17.;
    latency_p90_us = 290.5;
    latency_p99_us = 1000.25;
    latency_max_us = 2048.;
    latency_samples = 6;
    slo_objective_ms = 50.;
    slo_target = 0.999;
    slo_burn_1m = 0.;
    slo_burn_1h = 1. /. 3.;
    audit =
      {
        P.audit_sample = 8;
        audit_submitted = 10;
        audit_completed = 9;
        audit_dropped = 1;
        audit_failed = 0;
        audit_mean_err = -0.0625;
        audit_max_abs_err = 0.3;
        audit_alarms = 1;
        audit_drifting = [ "second-order"; "composability" ];
        audit_margin_checked = 4;
        audit_margin_missed = 1;
      };
  }

let old_server_stats =
  {|{"uptime_s":1.5,"connections":2,"requests":{"total":3,"ping":2,"stats":1},"workloads":0,"sessions":0,"cache":{"entries":0,"capacity":256,"hits":0,"misses":0},"pool":{"active_connections":1,"workers":4,"queue_capacity":1024,"shed":0},"admission":{"admitted":0,"rejected_candidate":0,"rejected_victim":0,"released":0},"latency_us":{"mean":10,"p50":9.5,"p90":20,"p99":30,"max":31,"samples":3}}|}

let fixed add =
  let verdicts =
    [
      ("admitted", P.Admitted { throughput = 1. /. 3.; margin = None });
      ("admitted-z-score", P.Admitted { throughput = 0.001; margin = Some z_margin });
      ("admitted-quantile", P.Admitted { throughput = 0.001; margin = Some q_margin });
      ("rejected-candidate", P.Rejected_candidate { estimated = 0.001; required = 0.5 });
      ( "rejected-victim",
        P.Rejected_victim { victim = "B"; estimated = 1e-3; required = 2e-3 } );
    ]
  in
  List.iter
    (fun (name, v) ->
      let label = "record/verdict-" ^ name in
      let frame = Json.to_string (P.ok (P.verdict_to_json v)) in
      reply_codec P.verdict_of_json P.verdict_to_json label frame;
      add label frame)
    verdicts;
  List.iter
    (fun (name, m) ->
      let label = "record/margin-" ^ name in
      let frame = Json.to_string (P.margin_to_json m) in
      reencodes label frame P.margin_of_json P.margin_to_json;
      add label frame)
    [ ("z-score", z_margin); ("quantile", q_margin) ];
  let stats = Json.to_string (P.ok (P.stats_reply_to_json stats_record)) in
  reply_codec P.stats_reply_of_json P.stats_reply_to_json "record/stats" stats;
  add "record/stats" stats;
  let metrics =
    Json.to_string
      (P.ok
         (P.metrics_reply_to_json
            {
              P.prometheus =
                "# HELP contention_serve_requests_total Requests served.\n\
                 contention_serve_requests_total{cmd=\"ping\"} 3\n";
            }))
  in
  reply_codec P.metrics_reply_of_json P.metrics_reply_to_json "record/metrics" metrics;
  add "record/metrics" metrics;
  add "record/upload"
    (Json.to_string
       (P.ok (P.upload_reply_to_json { P.digest = "d0"; apps = [ "A"; "B" ]; procs = 3 })));
  add "record/shed" (Json.to_string (P.shed ~queue_depth:7));
  add "record/error" (Json.to_string (P.error "boom: \"quoted\"\n\ttab"));
  (* An explain record carrying margins. *)
  let apps =
    Exp.Workload.analysis_apps (workload ()) (Contention.Usecase.full ~napps:2)
  in
  let with_margins =
    E.with_margins (E.compute A.Worst_case apps) [ ("A", z_margin); ("B", q_margin) ]
  in
  explain_frame add "record/explain-margins"
    (Json.to_string (P.ok (P.explain_reply_to_json with_margins)));
  (* An old server's stats: no margin counters, no slo or audit block. *)
  (match Result.bind (Json.of_string old_server_stats) P.stats_reply_of_json with
  | Error msg -> Alcotest.failf "old-server stats: %s" msg
  | Ok s -> add "record/stats-old-server" (Json.to_string (P.stats_reply_to_json s)));
  (* The reply decoders' error texts. *)
  let ignored decode json = Result.map ignore (decode json) in
  let decode_error name decode frame =
    match Result.bind (Json.of_string frame) decode with
    | Ok _ -> Alcotest.failf "decode-error/%s: accepted" name
    | Error msg -> add ("decode-error/" ^ name) msg
  in
  List.iter
    (fun (name, decode, frame) -> decode_error name decode frame)
    [
      ("upload-procs", ignored P.upload_reply_of_json, {|{"digest":"d","apps":["A"],"procs":"2"}|});
      ("upload-procs-fraction", ignored P.upload_reply_of_json, {|{"digest":"d","apps":["A"],"procs":2.5}|});
      ("upload-apps", ignored P.upload_reply_of_json, {|{"digest":"d","apps":["A",3],"procs":2}|});
      ("upload-digest", ignored P.upload_reply_of_json, {|{"apps":[],"procs":2}|});
      ("estimate-results", ignored P.estimate_reply_of_json, {|{"cached":true,"estimator":"second-order"}|});
      ("estimate-cached", ignored P.estimate_reply_of_json, {|{"cached":"yes","estimator":"x","results":[]}|});
      ( "estimate-row-type",
        ignored P.estimate_reply_of_json,
        {|{"cached":false,"estimator":"x","results":[{"app":"A","period":"x","isolation_period":1,"throughput":1}]}|} );
      ("estimate-row-not-object", ignored P.estimate_reply_of_json, {|{"cached":false,"estimator":"x","results":[5]}|});
      ("verdict-unknown", ignored P.verdict_of_json, {|{"verdict":"maybe"}|});
      ("verdict-missing", ignored P.verdict_of_json, {|{"throughput":1}|});
      ("verdict-victim", ignored P.verdict_of_json, {|{"verdict":"rejected-victim","estimated":1,"required":2}|});
      ( "margin-method",
        ignored P.verdict_of_json,
        {|{"verdict":"admitted","throughput":0.5,"margin":{"confidence":0.9,"method":"median","period":10,"lo":9,"hi":11,"mean":10,"std":1,"samples":0}}|} );
      ("margin-method-type", ignored P.margin_of_json, {|{"confidence":0.9,"method":1}|});
      ( "margin-invalid",
        ignored P.margin_of_json,
        {|{"confidence":0.9,"method":"z","period":10,"lo":12,"hi":11,"mean":10,"std":1,"samples":0}|} );
      ( "margin-samples",
        ignored P.margin_of_json,
        {|{"confidence":0.9,"method":"q","period":10,"lo":9,"hi":11,"mean":10,"std":1,"samples":1.5}|} );
      ( "margin-confidence",
        ignored P.margin_of_json,
        {|{"confidence":2,"method":"q","period":10,"lo":9,"hi":11,"mean":10,"std":1,"samples":1}|} );
      ("margin-not-object", ignored P.verdict_of_json, {|{"verdict":"admitted","throughput":0.5,"margin":"wide"}|});
      ("stats-empty", ignored P.stats_reply_of_json, {|{}|});
      ("stats-cache", ignored P.stats_reply_of_json, {|{"uptime_s":1,"connections":1,"requests":{"total":1},"workloads":0,"sessions":0,"cache":{"entries":0}}|});
      ("metrics", ignored P.metrics_reply_of_json, {|{"prometheus":1}|});
      ("explain-empty", ignored P.explain_reply_of_json, {|{}|});
      ("explain-apps", ignored P.explain_reply_of_json, {|{"estimator":"second-order","engine":"mcm","usecase":[],"apps":"nope"}|});
      ("explain-usecase", ignored P.explain_reply_of_json, {|{"estimator":"second-order","engine":"mcm","usecase":["A",1],"apps":[]}|});
      ( "explain-app",
        ignored P.explain_reply_of_json,
        {|{"estimator":"second-order","engine":"mcm","usecase":["A"],"apps":[{"app":"A","isolation_period":1,"period":"x"}]}|} );
    ]

(* --- stored estimate bodies --------------------------------------------- *)

(* A server stores [estimate_reply_body] per cache entry and answers with
   [estimate_reply_line]: both together must give the codec's bytes. *)
let test_stored_bodies () =
  (* Both sides of [add_num]'s switch from "%.0f" to "%.17g". *)
  let numbers = [| 222.; 1e15 -. 1.; 1e15; 0.1; 5e-324; Float.max_float |] in
  let num i = numbers.(i mod Array.length numbers) in
  let row i =
    {
      P.app = Printf.sprintf "app \"%d\"" i;
      period = num i;
      isolation_period = num (i + 1);
      throughput = num (i + 2);
    }
  in
  List.iter
    (fun n ->
      let rows = List.init n row in
      List.iter
        (fun e ->
          let estimator = A.estimator_name e in
          let body = P.estimate_reply_body ~estimator rows in
          List.iter
            (fun cached ->
              let want =
                Json.to_string
                  (P.ok (P.estimate_reply_to_json { P.cached; estimator; rows }))
              in
              let got = P.estimate_reply_line ~cached body in
              if got <> want then
                Alcotest.failf "%s, %d rows, cached %b:\n  got  %s\n  want %s"
                  estimator n cached got want)
            [ false; true ])
        A.all_paper_estimators)
    [ 0; 1; 10 ]

(* --- the comparison ---------------------------------------------------- *)

let frames () =
  let acc = ref [] in
  let add label frame =
    if String.contains label '\t' || String.contains frame '\n' then
      Alcotest.failf "%s: frame is not a single line" label;
    acc := (label, frame) :: !acc
  in
  requests add;
  live add;
  fixed add;
  List.rev !acc

let read_golden () =
  In_channel.with_open_bin golden_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.index_opt l '\t' with
         | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> Alcotest.failf "%s: malformed line %S" golden_file l)

let test_golden_frames () =
  let expected = read_golden () and got = frames () in
  let rec compare_from i expected got =
    match (expected, got) with
    | [], [] -> ()
    | (label, frame) :: _, [] ->
        Alcotest.failf "frame %d (%s) missing; expected\n  %s" i label frame
    | [], (label, frame) :: _ ->
        Alcotest.failf "frame %d (%s) not in %s:\n  %s" i label golden_file frame
    | (l, want) :: expected, (l', have) :: got ->
        if l <> l' || want <> have then
          Alcotest.failf "frame %d differs\n  expected %s\t%s\n  got      %s\t%s" i l
            want l' have
        else compare_from (i + 1) expected got
  in
  compare_from 1 expected got

let suite =
  [
    Alcotest.test_case "golden frames" `Quick test_golden_frames;
    Alcotest.test_case "stored estimate bodies" `Quick test_stored_bodies;
  ]
