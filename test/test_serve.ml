(* The contention serve daemon: unit tests for the store, the LRU cache
   and the protocol codecs, the stats reply against the metric registry
   (also under load), robustness of a live server against malformed
   input, the stored reply bytes of cache hits, cache-put entries and
   evicted keys, and the end-to-end integration scenario — two
   concurrent clients driving upload → estimate (cache hit on the second) →
   admit → reject-victim → release → stats, with the served numbers agreeing
   bit-for-bit with direct Contention.Analysis calls, and a clean shutdown. *)

module Json = Serve.Json
module Protocol = Serve.Protocol

open Fixtures.Daemon

let small_workload () = Exp.Workload.make ~seed:7 ~num_apps:3 ~procs:2 ()

(* --- store ----------------------------------------------------------- *)

let test_store () =
  let s = Serve.Store.create () in
  let w = small_workload () in
  let d = Serve.Store.add s w in
  Alcotest.(check string) "digest is stable" d (Serve.Store.digest_of w);
  Alcotest.(check int) "one entry" 1 (Serve.Store.count s);
  let first = Serve.Store.find s d in
  (* Re-adding the same content lands on the same address. *)
  let w' = unwrap (Exp.Workload.of_string (Exp.Workload.to_string w)) in
  Alcotest.(check string) "content-addressed" d (Serve.Store.add s w');
  Alcotest.(check int) "still one entry" 1 (Serve.Store.count s);
  (match Serve.Store.find s d with
  | Some ({ workload = found; caches } as entry) ->
      Alcotest.(check string) "find returns the workload"
        (Exp.Workload.to_string w)
        (Exp.Workload.to_string found);
      Alcotest.(check int) "one cache per app" 3 (Array.length caches);
      if not (Option.fold ~none:false ~some:(( == ) entry) first) then
        Alcotest.fail "re-adding made the entry again"
  | None -> Alcotest.fail "digest not found");
  (match Serve.Store.find s "feedfacefeedfacefeedfacefeedface" with
  | None -> ()
  | Some _ -> Alcotest.fail "bogus digest found");
  let other = Exp.Workload.make ~seed:8 ~num_apps:3 ~procs:2 () in
  if Serve.Store.add s other = d then
    Alcotest.fail "different workloads share a digest";
  Alcotest.(check int) "two entries" 2 (Serve.Store.count s)

(* --- lru ------------------------------------------------------------- *)

let test_lru () =
  (try
     ignore (Serve.Lru.create ~capacity:0 : (int, int) Serve.Lru.t);
     Alcotest.fail "capacity 0 accepted"
   with Invalid_argument _ -> ());
  let c = Serve.Lru.create ~capacity:2 in
  Alcotest.(check (option int)) "miss on empty" None (Serve.Lru.find c "a");
  Serve.Lru.put c "a" 1;
  Serve.Lru.put c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Serve.Lru.find c "a");
  (* "b" is now least-recently-used; inserting "c" evicts it. *)
  Serve.Lru.put c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Serve.Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Serve.Lru.find c "c");
  Serve.Lru.put c "c" 33;
  Alcotest.(check (option int)) "refresh in place" (Some 33)
    (Serve.Lru.find c "c");
  Alcotest.(check int) "length" 2 (Serve.Lru.length c);
  Alcotest.(check int) "capacity" 2 (Serve.Lru.capacity c)

(* --- protocol codecs ------------------------------------------------- *)

let test_protocol_roundtrip () =
  let requests =
    [
      Protocol.Ping;
      Protocol.Upload { payload = "line1\nline2\n" };
      Protocol.Estimate
        { digest = "abc"; usecase = None; estimator = Contention.Analysis.Order 2 };
      Protocol.Estimate
        {
          digest = "abc";
          usecase = Some [ "A"; "C" ];
          estimator = Contention.Analysis.Exact;
        };
      Protocol.Admit
        {
          session = "s";
          digest = "abc";
          app = "A";
          min_throughput = 0.25;
          confidence = None;
          margin_method = None;
        };
      Protocol.Admit
        {
          session = "s";
          digest = "abc";
          app = "A";
          min_throughput = 0.25;
          confidence = Some 0.95;
          margin_method = Some Contention.Margin.Quantile;
        };
      Protocol.Release { session = "s"; app = "A" };
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      let j = Protocol.request_to_json r in
      (* Through the actual wire representation, not just the tree. *)
      match Json.of_string (Json.to_string j) with
      | Error e -> Alcotest.failf "wire reparse: %s" e
      | Ok j' -> (
          match Protocol.request_of_json j' with
          | Ok r' when r = r' -> ()
          | Ok _ -> Alcotest.fail "request changed in flight"
          | Error e -> Alcotest.failf "request_of_json: %s" e))
    requests;
  let verdicts =
    [
      Protocol.Admitted { throughput = 0.1; margin = None };
      Protocol.Rejected_candidate { estimated = 0.1; required = 0.2 };
      Protocol.Rejected_victim { victim = "B"; estimated = 0.1; required = 0.2 };
    ]
  in
  List.iter
    (fun v ->
      match Protocol.verdict_of_json (Protocol.verdict_to_json v) with
      | Ok v' when v = v' -> ()
      | Ok _ -> Alcotest.fail "verdict changed in flight"
      | Error e -> Alcotest.failf "verdict_of_json: %s" e)
    verdicts

let test_estimator_names () =
  let ok name expected =
    match Contention.Analysis.estimator_of_string name with
    | Ok e when e = expected -> ()
    | Ok _ -> Alcotest.failf "%S resolved to the wrong estimator" name
    | Error e -> Alcotest.failf "%S: %s" name e
  in
  ok "worst-case" Contention.Analysis.Worst_case;
  ok "wc" Contention.Analysis.Worst_case;
  ok "second-order" (Contention.Analysis.Order 2);
  ok "o2" (Contention.Analysis.Order 2);
  ok "o4" (Contention.Analysis.Order 4);
  ok "6" (Contention.Analysis.Order 6);
  ok "order-8" (Contention.Analysis.Order 8);
  ok "comp" Contention.Analysis.Composability;
  ok "exact" Contention.Analysis.Exact;
  List.iter
    (fun bad ->
      match Contention.Analysis.estimator_of_string bad with
      | Error (_ : string) -> ()
      | Ok _ -> Alcotest.failf "%S accepted" bad)
    [ "1"; "0"; "-2"; "garbage"; "" ]

(* --- live-server helpers --------------------------------------------- *)

let with_client port f =
  let c = unwrap (Serve.Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

(* A raw TCP connection for speaking deliberately broken protocol. *)
let with_raw_conn port f =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      f fd)

let raw_roundtrip fd line =
  Serve.Wire.write_line fd line;
  match Serve.Wire.read_frame (Serve.Wire.reader fd) with
  | Serve.Wire.Line reply -> reply
  | Serve.Wire.Eof -> Alcotest.fail "connection dropped instead of replying"
  | Serve.Wire.Too_long -> Alcotest.fail "oversized reply"

let request_line r = Json.to_string (Protocol.request_to_json r)

let expect_error_reply what reply =
  match Json.of_string reply with
  | Ok (Json.Obj kvs) when List.mem_assoc "error" kvs -> ()
  | _ -> Alcotest.failf "%s: expected an error reply, got %s" what reply

(* --- robustness: a misbehaving client gets error replies, the server
   lives on ------------------------------------------------------------ *)

let test_robustness () =
  with_server ~max_line:4096 (fun _server port ->
      with_raw_conn port (fun fd ->
          expect_error_reply "malformed JSON" (raw_roundtrip fd "not json{");
          expect_error_reply "non-object frame" (raw_roundtrip fd "[1,2]");
          expect_error_reply "missing cmd" (raw_roundtrip fd {|{"x": 1}|});
          expect_error_reply "unknown command"
            (raw_roundtrip fd {|{"cmd": "frobnicate"}|});
          expect_error_reply "wrong field type"
            (raw_roundtrip fd {|{"cmd": "upload", "payload": 42}|});
          expect_error_reply "unknown digest"
            (raw_roundtrip fd
               {|{"cmd": "estimate", "digest": "deadbeef", "estimator": "o2"}|});
          expect_error_reply "bad estimator"
            (raw_roundtrip fd
               {|{"cmd": "estimate", "digest": "deadbeef", "estimator": "o3"}|});
          (* A truncated Workload.save payload is a protocol error, not a
             crash. *)
          let payload = Exp.Workload.to_string (small_workload ()) in
          let truncated =
            String.sub payload 0 (String.length payload / 2)
          in
          let request =
            Json.to_string
              (Protocol.request_to_json
                 (Protocol.Upload { payload = truncated }))
          in
          expect_error_reply "truncated workload payload"
            (raw_roundtrip fd request));
      (* Oversized frame: error reply, then the connection is dropped —
         but only that connection. *)
      with_raw_conn port (fun fd ->
          expect_error_reply "oversized line"
            (raw_roundtrip fd (String.make 8192 'x')));
      (* The server survived all of the above. *)
      with_client port (fun c -> unwrap (Serve.Client.ping c)))

(* A non-finite execution time is refused at upload: the workload never
   gets a digest, so no estimate can trip over it later. *)
let test_non_finite_upload () =
  with_server (fun server _port ->
      let payload = Exp.Workload.to_string (small_workload ()) in
      List.iter
        (fun bad ->
          let lines = String.split_on_char '\n' payload in
          let replaced = ref false in
          let edited =
            List.map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ "actor"; name; _ ] when not !replaced ->
                    replaced := true;
                    Printf.sprintf "actor %s %s" name bad
                | _ -> line)
              lines
          in
          Alcotest.(check bool) "an actor line was edited" true !replaced;
          let request =
            Json.to_string
              (Protocol.request_to_json
                 (Protocol.Upload { payload = String.concat "\n" edited }))
          in
          expect_error_reply ("upload with tau = " ^ bad)
            (Serve.Server.handle_line server request))
        [ "nan"; "inf" ])

(* The reply to an in-process upload of [payload]. *)
let upload_reply server payload =
  Serve.Server.handle_line server (request_line (Protocol.Upload { payload }))

let upload_in_process server w =
  let up =
    unwrap
      (Result.bind
         (Result.bind
            (Json.of_string (upload_reply server (Exp.Workload.to_string w)))
            Protocol.unwrap_reply)
         Protocol.upload_reply_of_json)
  in
  up.Protocol.digest

(* A workload of [graphs] on two processors. *)
let workload_payload graphs =
  "# contention-workload procs=2 seed=7\n" ^ Sdf.Text.to_string_many graphs

(* A graph the analysis cannot take refuses the whole upload, and the reply
   names it among the workload's graphs: a deadlocked ring, and a ring whose
   HSDF expansion would run to hundreds of millions of nodes (refused before
   any of it is allocated). *)
let test_refused_upload () =
  with_server (fun server _port ->
      List.iter
        (fun (name, rate, tokens) ->
          let g =
            Sdf.Graph.create ~name ~actors:[| ("a0", 1.); ("a1", 1.) |]
              ~channels:[| (0, 1, rate, 1, 0); (1, 0, 1, rate, tokens) |]
          in
          let reply = upload_reply server (workload_payload [ Fixtures.pipeline (); g ]) in
          match Json.of_string reply with
          | Ok (Json.Obj [ ("error", Json.Str msg) ])
            when String.starts_with ~prefix:"bad workload" msg
                 && Fixtures.contains ~affix:(Printf.sprintf "graph %S" name) msg
                 && not (Fixtures.contains ~affix:{|"pipe"|} msg) ->
              ()
          | _ -> Alcotest.failf "expected a bad workload naming %S, got %s" name reply)
        [ ("stuck", 1, 0); ("wide", 100_000_000, 100_000_000) ])

(* A two-actor ring with one token. *)
let ring name ~tau =
  Sdf.Graph.create ~name
    ~actors:[| ("p0", tau); ("p1", 5.) |]
    ~channels:[| (0, 1, 1, 1, 0); (1, 0, 1, 1, 1) |]

let expect_bad_workload what ~affix reply =
  match Json.of_string reply with
  | Ok (Json.Obj [ ("error", Json.Str msg) ])
    when String.starts_with ~prefix:"bad workload: " msg
         && Fixtures.contains ~affix msg ->
      ()
  | _ -> Alcotest.failf "%s: expected a bad workload naming %s, got %s" what affix reply

(* Use-case masks address 30 applications: an upload of 30 graphs is
   estimated whole, one of 31 is refused, since its last graph could not
   be named in a use-case. *)
let test_upload_mask_width () =
  let graph i = ring (Printf.sprintf "X%d" i) ~tau:(float_of_int (i + 1)) in
  with_server (fun server _port ->
      expect_bad_workload "31 graphs" ~affix:"31 graphs"
        (upload_reply server (workload_payload (List.init 31 graph)));
      let digest =
        upload_in_process server
          (unwrap (Exp.Workload.of_string (workload_payload (List.init 30 graph))))
      in
      let rows usecase =
        let reply =
          Serve.Server.handle_line server
            (request_line
               (Protocol.Estimate
                  { digest; usecase; estimator = Contention.Analysis.Order 2 }))
        in
        (unwrap
           (Result.bind
              (Result.bind (Json.of_string reply) Protocol.unwrap_reply)
              Protocol.estimate_reply_of_json))
          .Protocol.rows
      in
      Alcotest.(check int) "every graph estimated" 30 (List.length (rows None));
      Alcotest.(check (list string)) "the last graph addressed" [ "X29" ]
        (List.map (fun (r : Protocol.estimate_row) -> r.app) (rows (Some [ "X29" ]))))

(* Names key use-cases, sessions and rows: two graphs of one name are
   refused, not answered for the second alone. *)
let test_upload_shared_name () =
  with_server (fun server _port ->
      expect_bad_workload "two graphs named A" ~affix:{|"A"|}
        (upload_reply server
           (workload_payload [ ring "A" ~tau:3.; Fixtures.pipeline (); ring "A" ~tau:4. ])))

(* --- stored reply bytes: hits, cache-put entries, evictions ------------ *)

let miss_prefix = {|{"ok":{"cached":false|}

(* A miss's line with its cached flag turned to true. *)
let as_hit miss =
  if not (String.starts_with ~prefix:miss_prefix miss) then
    Alcotest.failf "not an estimate miss: %s" miss;
  let n = String.length miss_prefix in
  {|{"ok":{"cached":true|} ^ String.sub miss n (String.length miss - n)

let test_stored_replies () =
  let w = small_workload () in
  let estimate digest ?usecase estimator =
    request_line (Protocol.Estimate { digest; usecase; estimator })
  in
  with_server (fun server _port ->
      let send = Serve.Server.handle_line server in
      let digest = upload_in_process server w in
      (* A hit is byte-equal to its key's first miss but for the flag. *)
      List.iter
        (fun (usecase, estimator) ->
          let line = estimate digest ?usecase estimator in
          let miss = send line in
          Alcotest.(check string)
            ("hit of " ^ Contention.Analysis.estimator_name estimator)
            (as_hit miss) (send line))
        [
          (None, Contention.Analysis.Order 2);
          (Some [ "A"; "C" ], Contention.Analysis.Worst_case);
          (Some [ "B" ], Contention.Analysis.Composability);
          (None, Contention.Analysis.Order 4);
        ];
      (* A cache-put entry is served as the codec's encoding of its rows. *)
      let names = Exp.Workload.names w and iso = Exp.Workload.isolation_periods w in
      let rows =
        List.mapi
          (fun i period ->
            {
              Protocol.app = names.(i);
              period;
              isolation_period = iso.(i);
              throughput = 1. /. period;
            })
          [ 1000.; 0.1; 1e15 ]
      in
      let put =
        send
          (request_line
             (Protocol.Cache_put { digest; mask = 7; estimator = "o4"; rows }))
      in
      ignore (unwrap (Protocol.unwrap_reply (unwrap (Json.of_string put))));
      Alcotest.(check string)
        "cache-put entry served"
        (Json.to_string
           (Protocol.ok
              (Protocol.estimate_reply_to_json
                 { Protocol.cached = true; estimator = "fourth-order"; rows })))
        (send (estimate digest (Contention.Analysis.Order 4))));
  (* An evicted key is estimated and encoded again, to the same bytes. *)
  with_server ~cache_capacity:1 (fun server _port ->
      let send = Serve.Server.handle_line server in
      let digest = upload_in_process server w in
      let first = send (estimate digest (Contention.Analysis.Order 2)) in
      (* Two misses: the second evicts the first key. *)
      ignore (as_hit first : string);
      ignore (as_hit (send (estimate digest Contention.Analysis.Worst_case)));
      Alcotest.(check string)
        "second miss after eviction" first
        (send (estimate digest (Contention.Analysis.Order 2))))

(* --- hot entries: once per cache residency ----------------------------- *)

(* [on_hot] fires when a cache entry's request count reaches
   [hot_threshold]: once however often the entry is requested while it
   stays cached, once more after it was evicted and requested that often
   again, and not again when a cache-put replaces its rows. *)
let test_hot_once_per_residency () =
  let fired = ref [] in
  let server =
    start_server ~jobs:1 ~cache_capacity:1 ~hot_threshold:2
      ~on_hot:(fun e -> fired := e :: !fired)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () ->
      let send = Serve.Server.handle_line server in
      let digest = upload_in_process server (small_workload ()) in
      let estimate estimator =
        ignore
          (send (request_line (Protocol.Estimate { digest; usecase = None; estimator }))
            : string)
      in
      let fired_for what n =
        Alcotest.(check (list string)) what (List.init n (fun _ -> "second-order"))
          (List.map (fun (e : Serve.Server.hot_entry) -> e.hot_estimator) !fired)
      in
      for _ = 1 to 5 do
        estimate (Contention.Analysis.Order 2)
      done;
      fired_for "once in one residency" 1;
      (* Capacity 1: the worst-case entry evicts the second-order one. *)
      estimate Contention.Analysis.Worst_case;
      estimate (Contention.Analysis.Order 2);
      fired_for "not before the threshold" 1;
      estimate (Contention.Analysis.Order 2);
      fired_for "once more after an eviction" 2;
      let e = List.hd !fired in
      ignore
        (unwrap
           (Protocol.unwrap_reply
              (unwrap
                 (Json.of_string
                    (send
                       (request_line
                          (Protocol.Cache_put
                             {
                               digest;
                               mask = e.hot_mask;
                               estimator = e.hot_estimator;
                               rows = e.hot_rows;
                             })))))));
      for _ = 1 to 3 do
        estimate (Contention.Analysis.Order 2)
      done;
      fired_for "not again after a cache-put" 2)

(* --- stats reads the registry ------------------------------------------ *)

(* The payload of one request line through the in-process entry. *)
let payload server line =
  Protocol.unwrap_reply
    (unwrap (Json.of_string (Serve.Server.handle_line server line)))

let stats_of server =
  unwrap
    (Result.bind (payload server {|{"cmd":"stats"}|}) Protocol.stats_reply_of_json)

(* The samples of a [metrics] reply, as (series, value) pairs.  They also
   count the [stats] request read before, which that reply did not. *)
let samples_of server =
  List.filter_map
    (fun l ->
      match String.rindex_opt l ' ' with
      | Some i when l.[0] <> '#' ->
          Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
      | _ -> None)
    (String.split_on_char '\n'
       (unwrap
          (Result.bind (payload server {|{"cmd":"metrics"}|})
             Protocol.metrics_reply_of_json))
         .Protocol.prometheus)

(* A [stats] count against its expected value and its series. *)
let check_series samples (series, got, expected) =
  Alcotest.(check int) series expected got;
  Alcotest.(check (option string))
    (series ^ " exposed") (Some (string_of_int got))
    (List.assoc_opt series samples)

let test_metrics () =
  with_server (fun server port ->
      let d = upload_in_process server (small_workload ()) in
      let send fmt = Printf.ksprintf (payload server) fmt in
      let admit app floor extra =
        unwrap
          (Result.bind
             (send
                {|{"cmd":"admit","session":"s","workload":%S,"app":%S,"min_throughput":%g%s}|}
                d app floor extra)
             Protocol.verdict_of_json)
      in
      (* One ping over a connection, so the connection counter moves; the
         rest go through [handle_line] directly. *)
      with_client port (fun c -> unwrap (Serve.Client.ping c));
      ignore (unwrap (send {|{"cmd":"ping"}|}));
      for _ = 1 to 2 do
        ignore (unwrap (send {|{"cmd":"estimate","workload":%S}|} d))
      done;
      let width =
        match admit "A" 0. {|,"confidence":0.95|} with
        | Protocol.Admitted { margin = Some m; _ } ->
            Contention.Margin.rel_width m
        | _ -> Alcotest.fail "A not admitted with a margin"
      in
      (match admit "B" 1e9 "" with
      | Protocol.Rejected_candidate _ -> ()
      | _ -> Alcotest.fail "B admitted at an unreachable throughput");
      ignore (unwrap (send {|{"cmd":"release","session":"s","app":"A"}|}));
      expect_error "release of an unknown app"
        (send {|{"cmd":"release","session":"s","app":"Z"}|});
      expect_error "malformed line" (send "not json");
      (* Push the upload and the estimates out of the 4,096-latency ring:
         the mean must still cover them. *)
      for _ = 1 to 4096 do
        ignore (unwrap (send {|{"cmd":"ping"}|}))
      done;
      let s = stats_of server in
      Alcotest.(check (list (pair string int)))
        "per-command counts"
        [ ("admit", 2); ("estimate", 2); ("invalid", 1); ("ping", 4098);
          ("release", 2); ("upload", 1) ]
        s.Protocol.requests;
      let open Protocol in
      Alcotest.(check int) "total" 4106 s.requests_total;
      Alcotest.(check int) "latency samples" 4106 s.latency_samples;
      Alcotest.(check (float 0.)) "margin width" width s.margin_mean_rel_width;
      if
        not
          (0. < s.latency_p50_us && s.latency_p50_us <= s.latency_p90_us
          && s.latency_p90_us <= s.latency_p99_us
          && s.latency_p99_us <= s.latency_max_us
          && 0. < s.latency_mean_us && s.latency_mean_us <= s.latency_max_us)
      then Alcotest.fail "latency summary out of order";
      let samples = samples_of server in
      let seconds (cmd, _) =
        float_of_string
          (List.assoc
             (Printf.sprintf "contention_serve_request_seconds_sum{cmd=%S}" cmd)
             samples)
      in
      Fixtures.check_float ~eps:1e-9 "mean latency covers every request"
        (1e6 *. List.fold_left (fun a c -> a +. seconds c) 0. s.requests /. 4106.)
        s.latency_mean_us;
      (* Every count against its expected value and its series. *)
      let admissions =
        Printf.sprintf "contention_serve_admissions_total{verdict=%S}"
      in
      let per_command name =
        List.map (fun (cmd, n) -> (Printf.sprintf "%s{cmd=%S}" name cmd, n, n))
      in
      List.iter (check_series samples)
        ([
           ("contention_serve_connections_total", s.connections, 1);
           ("contention_serve_cache_hits_total", s.cache_hits, 1);
           ("contention_serve_cache_misses_total", s.cache_misses, 1);
           ("contention_serve_shed_total", s.shed, 0);
           (admissions "admitted", s.admitted, 1);
           (admissions "rejected-candidate", s.rejected_candidate, 1);
           (admissions "rejected-victim", s.rejected_victim, 0);
           ("contention_serve_releases_total", s.released, 1);
           ("contention_serve_margin_rel_width_count", s.margins_served, 1);
         ]
        @ per_command "contention_serve_requests_total" s.requests
        @ per_command "contention_serve_request_seconds_count" s.requests))

(* Two domains each send [n] pings and [n] malformed lines, racing on the
   same handles and to list each command, while [stats] is read.  Each
   reply agrees with itself, and at the end [stats] and the exposition
   count every request sent. *)
let test_stats_under_load () =
  let n = 2000 in
  with_server (fun server _port ->
      let running = Atomic.make 2 in
      let sender () =
        Fun.protect
          ~finally:(fun () -> Atomic.decr running)
          (fun () ->
            for _ = 1 to n do
              ignore (Serve.Server.handle_line server {|{"cmd":"ping"}|} : string);
              ignore (Serve.Server.handle_line server "not json" : string)
            done)
      in
      let senders = List.init 2 (fun _ -> Domain.spawn sender) in
      while Atomic.get running > 0 do
        let s = stats_of server in
        let sum = List.fold_left (fun n (_, c) -> n + c) 0 s.Protocol.requests in
        if s.requests_total <> sum || s.latency_samples <> sum then
          Alcotest.failf "total %d, samples %d, per-command sum %d"
            s.requests_total s.latency_samples sum
      done;
      List.iter Domain.join senders;
      let s = stats_of server in
      let samples = samples_of server in
      List.iter
        (fun cmd ->
          check_series samples
            ( Printf.sprintf "contention_serve_requests_total{cmd=%S}" cmd,
              Option.value ~default:0 (List.assoc_opt cmd s.Protocol.requests),
              2 * n ))
        [ "ping"; "invalid" ])

let test_release_errors () =
  with_server (fun _server port ->
      with_client port (fun c ->
          let payload = Exp.Workload.to_string (small_workload ()) in
          let up = unwrap (Serve.Client.upload c ~payload) in
          expect_error "release before any admit"
            (Serve.Client.release c ~app:"A" ());
          (match
             Serve.Client.admit c ~digest:up.Protocol.digest ~app:"A"
               ~min_throughput:0. ()
           with
          | Ok (Protocol.Admitted _) -> ()
          | Ok _ -> Alcotest.fail "A not admitted into an empty session"
          | Error e -> Alcotest.failf "admit: %s" e);
          expect_error "double admit"
            (Serve.Client.admit c ~digest:up.Protocol.digest ~app:"A"
               ~min_throughput:0. ());
          expect_error "release of an unknown app"
            (Serve.Client.release c ~app:"Z" ());
          unwrap (Serve.Client.release c ~app:"A" ())))

(* --- the integration scenario ---------------------------------------- *)

(* Direct estimates for the full use-case, for the bit-for-bit check. *)
let local_rows w estimator =
  let mask = Contention.Usecase.full ~napps:(Exp.Workload.num_apps w) in
  List.map
    (fun (r : Contention.Analysis.estimate) ->
      (r.for_app.graph.Sdf.Graph.name, r.period, Contention.Analysis.throughput r))
    (Contention.Analysis.estimate estimator (Exp.Workload.analysis_apps w mask))

let check_rows_bitwise ~what local (reply : Protocol.estimate_reply) =
  Alcotest.(check int)
    (what ^ ": row count") (List.length local)
    (List.length reply.rows);
  List.iter2
    (fun (name, period, tp) (row : Protocol.estimate_row) ->
      Alcotest.(check string) (what ^ ": app order") name row.Protocol.app;
      if Int64.bits_of_float period <> Int64.bits_of_float row.Protocol.period
      then
        Alcotest.failf "%s: period of %s differs: %h vs %h" what name period
          row.Protocol.period;
      if
        Int64.bits_of_float tp
        <> Int64.bits_of_float row.Protocol.throughput
      then Alcotest.failf "%s: throughput of %s differs" what name)
    local reply.rows

(* What one scenario client saw; asserted on the main domain once both
   clients are joined.  Alcotest logs every check through one shared
   formatter, which two domains must not drive at once. *)
type observations = {
  digest : string;
  procs : int;
  first : Protocol.estimate_reply;
  second : Protocol.estimate_reply;
  readmit : Protocol.verdict;  (* A again, at 0.999 of its solo throughput *)
  pushes : (string * Protocol.verdict) list;  (* admits until a victim *)
}

(* One client's session: upload, estimate twice (second must be cached and
   identical), admit with a floor just under the achieved throughput, push a
   second app in until someone is rejected as a victim, release.  Runs
   concurrently with the other client on a distinct session and a distinct
   estimator (hence distinct cache keys, so cached=false then cached=true is
   deterministic per client).  It makes no Alcotest call: an error reply
   fails it with [Failure], which [Domain.join] re-raises. *)
let client_scenario ~port ~session ~estimator w () =
  let get = function Ok v -> v | Error msg -> failwith msg in
  let c = get (Serve.Client.connect ~port ()) in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close c)
    (fun () ->
      get (Serve.Client.ping c);
      let up = get (Serve.Client.upload c ~payload:(Exp.Workload.to_string w)) in
      let digest = up.Protocol.digest in
      let first = get (Serve.Client.estimate c ~digest ~estimator ()) in
      let second = get (Serve.Client.estimate c ~digest ~estimator ()) in
      (* Admission: A alone is comfortable; pin its requirement just below
         what it achieves alone, then admitting the others must eventually
         reject a candidate because A would become a victim. *)
      let tp_a =
        match
          get (Serve.Client.admit c ~session ~digest ~app:"A" ~min_throughput:0. ())
        with
        | Protocol.Admitted { throughput; _ } -> throughput
        | _ -> failwith "A rejected from an empty session"
      in
      get (Serve.Client.release c ~session ~app:"A" ());
      let readmit =
        get
          (Serve.Client.admit c ~session ~digest ~app:"A"
             ~min_throughput:(tp_a *. 0.999) ())
      in
      let rec push acc = function
        | [] -> List.rev acc
        | app :: rest -> (
            let v =
              get (Serve.Client.admit c ~session ~digest ~app ~min_throughput:0. ())
            in
            match v with
            | Protocol.Rejected_victim _ -> List.rev ((app, v) :: acc)
            | _ -> push ((app, v) :: acc) rest)
      in
      let pushes = push [] [ "B"; "C" ] in
      get (Serve.Client.release c ~session ~app:"A" ());
      { digest; procs = up.Protocol.procs; first; second; readmit; pushes })

let check_observations w estimator o =
  Alcotest.(check string) "digest" (Serve.Store.digest_of w) o.digest;
  Alcotest.(check int) "procs" w.Exp.Workload.procs o.procs;
  if o.first.Protocol.cached then
    Alcotest.fail "first estimate claims to be cached";
  if not o.second.Protocol.cached then
    Alcotest.fail "second estimate missed the cache";
  check_rows_bitwise ~what:"cached reply" (local_rows w estimator) o.second;
  check_rows_bitwise ~what:"first reply" (local_rows w estimator) o.first;
  (match o.readmit with
  | Protocol.Admitted _ -> ()
  | _ -> Alcotest.fail "A rejected at its own solo throughput");
  let rec victims = function
    | [] -> Alcotest.fail "no admission ever named A as victim"
    | [ (_, Protocol.Rejected_victim { victim; estimated; required }) ] ->
        Alcotest.(check string) "victim is A" "A" victim;
        if estimated >= required then
          Alcotest.fail "victim estimate not below its requirement"
    | (_, (Protocol.Admitted _ | Protocol.Rejected_candidate _)) :: rest ->
        victims rest
    | (app, _) :: _ -> Alcotest.failf "admit %s: unexpected verdict" app
  in
  victims o.pushes

let test_integration () =
  let w = small_workload () in
  with_server (fun server port ->
      (* Two concurrent clients on separate sessions and estimators. *)
      let clients =
        List.map
          (fun (session, estimator) ->
            (estimator, Domain.spawn (client_scenario ~port ~session ~estimator w)))
          [
            ("alpha", Contention.Analysis.Order 2);
            ("beta", Contention.Analysis.Order 4);
          ]
      in
      List.iter
        (fun (estimator, d) -> check_observations w estimator (Domain.join d))
        clients;
      with_client port (fun c ->
          let s = unwrap (Serve.Client.stats c) in
          Alcotest.(check int) "one workload stored" 1 s.Protocol.workloads;
          Alcotest.(check int) "two sessions live" 2 s.Protocol.sessions;
          (* Each client: one miss then one hit on its own cache key. *)
          Alcotest.(check int) "cache entries" 2 s.Protocol.cache_entries;
          Alcotest.(check int) "cache hits" 2 s.Protocol.cache_hits;
          Alcotest.(check int) "cache misses" 2 s.Protocol.cache_misses;
          Fixtures.check_float ~eps:1e-9 "hit rate" 0.5
            (Protocol.cache_hit_rate s);
          if s.Protocol.rejected_victim < 2 then
            Alcotest.failf "expected 2 victim rejections, saw %d"
              s.Protocol.rejected_victim;
          Alcotest.(check int) "released" 4 s.Protocol.released;
          (* Each scenario client issues at least 9 requests; the stats
             snapshot precedes the recording of the stats request itself. *)
          if s.Protocol.requests_total < 18 then
            Alcotest.fail "request counter implausibly low";
          if s.Protocol.latency_samples <> s.Protocol.requests_total then
            Alcotest.fail "every request must be timed";
          Alcotest.(check int) "worker pool size" 2 s.Protocol.workers;
          (* The connection asking for stats is itself being served. *)
          if s.Protocol.active_connections < 1 then
            Alcotest.fail "the stats connection must count as active";
          if Protocol.pool_occupancy s <= 0. then
            Alcotest.fail "pool occupancy must be positive";
          (* The Prometheus exposition over the wire carries the per-command
             counters and latency histograms. *)
          let hay = (unwrap (Serve.Client.metrics c)).Protocol.prometheus in
          let contains affix =
            if not (Fixtures.contains ~affix hay) then
              Alcotest.failf "metrics exposition lacks %S:\n%s" affix hay
          in
          contains "# TYPE contention_serve_requests_total counter";
          contains "contention_serve_requests_total{cmd=\"estimate\"} 4";
          contains "# TYPE contention_serve_request_seconds histogram";
          contains "contention_serve_request_seconds_bucket{cmd=\"estimate\",le=\"+Inf\"} 4";
          contains "contention_serve_request_seconds_count{cmd=\"estimate\"} 4";
          contains "contention_serve_cache_hits_total 2";
          contains "contention_serve_cache_misses_total 2";
          contains "contention_serve_workers 2";
          (* A client shutdown request flips the flag the serve loop polls. *)
          if Serve.Server.shutdown_requested server then
            Alcotest.fail "shutdown flag set early";
          unwrap (Serve.Client.shutdown c);
          if not (Serve.Server.shutdown_requested server) then
            Alcotest.fail "shutdown flag not set"));
  (* with_server's finally already ran stop; a second stop must be a
     no-op. *)
  ()

let test_graceful_stop_with_idle_client () =
  let w = small_workload () in
  with_server (fun server port ->
      let c = unwrap (Serve.Client.connect ~port ()) in
      let payload = Exp.Workload.to_string w in
      ignore (unwrap (Serve.Client.upload c ~payload) : Protocol.upload_reply);
      (* The client now sits idle on an open connection; stop () must not
         wait for it to hang up. *)
      Serve.Server.stop server;
      Serve.Client.close c)

(* A refused setting raises, naming its field, before anything is bound:
   no socket file is left behind. *)
let refused_before_binding field edit () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "contention-refused-%d.sock" (Unix.getpid ()))
  in
  let config =
    edit
      {
        Serve.Server.default_config with
        port = None;
        unix_path = Some path;
        jobs = Some 1;
      }
  in
  (match Serve.Server.start ~config () with
  | exception Invalid_argument msg ->
      if not (Fixtures.contains ~affix:field msg) then
        Alcotest.failf "%s refused without naming it: %s" field msg
  | server ->
      Serve.Server.stop server;
      Alcotest.failf "%s accepted" field);
  if Sys.file_exists path then begin
    Sys.remove path;
    Alcotest.failf "%s: socket file left behind" field
  end

(* A start that fails past its setting checks (the journal cannot be
   opened, or the Unix bind fails after the TCP bind) raises and releases
   what it held: no socket file is left and the TCP port binds afresh. *)
let released_on_failure edit () =
  let scratch name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "contention-%d-%s" (Unix.getpid ()) name)
  in
  (* Binds and releases a loopback port; raises EADDRINUSE while a leaked
     listener holds it. *)
  let bind_loopback port =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> port)
  in
  let port = bind_loopback 0 in
  let config =
    edit ~missing:(scratch "missing")
      {
        Serve.Server.default_config with
        port = Some port;
        unix_path = Some (scratch "released.sock");
        jobs = Some 1;
      }
  in
  (match Serve.Server.start ~config () with
  | exception (Sys_error _ | Unix.Unix_error _) -> ()
  | server ->
      Serve.Server.stop server;
      Alcotest.fail "started");
  Option.iter
    (fun path ->
      if Sys.file_exists path then begin
        Sys.remove path;
        Alcotest.failf "socket file %s left behind" path
      end)
    config.unix_path;
  match bind_loopback port with
  | _ -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Alcotest.failf "port %d still held: %s" port (Unix.error_message e)

(* One case per refused setting, named by the value it is refused, then one
   per acquisition that fails. *)
let bad_config_suite =
  let case name field edit =
    Alcotest.test_case name `Quick (refused_before_binding field edit)
  in
  let failing name edit =
    Alcotest.test_case name `Quick (released_on_failure edit)
  in
  let open Serve.Server in
  [
    case "jobs = 0" "jobs" (fun c -> { c with jobs = Some 0 });
    case "audit_horizon = nan" "audit_horizon" (fun c ->
        { c with audit_horizon = nan });
    case "slo_objective_ms = 0" "slo_objective_ms" (fun c ->
        { c with slo_objective_ms = 0. });
    case "slo_target = 1" "slo_target" (fun c -> { c with slo_target = 1. });
    case "audit_drift_lambda = infinity" "audit_drift_lambda" (fun c ->
        { c with audit_drift_lambda = infinity });
    case "audit_drift_delta = -1" "audit_drift_delta" (fun c ->
        { c with audit_drift_delta = -1. });
    failing "journal dir missing" (fun ~missing c ->
        { c with journal_path = Some (Filename.concat missing "j.jsonl") });
    failing "unix dir missing" (fun ~missing c ->
        { c with unix_path = Some (Filename.concat missing "s.sock") });
  ]

let suite =
  [
    Alcotest.test_case "store" `Quick test_store;
    Alcotest.test_case "lru" `Quick test_lru;
    Alcotest.test_case "metrics" `Quick test_metrics;
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "estimator names" `Quick test_estimator_names;
    Alcotest.test_case "robustness" `Quick test_robustness;
    Alcotest.test_case "non-finite upload refused" `Quick test_non_finite_upload;
    Alcotest.test_case "refused upload names the graph" `Quick test_refused_upload;
    Alcotest.test_case "upload past the mask width refused" `Quick test_upload_mask_width;
    Alcotest.test_case "upload of a shared name refused" `Quick test_upload_shared_name;
    Alcotest.test_case "stored reply bytes" `Quick test_stored_replies;
    Alcotest.test_case "hot hook once per cache residency" `Quick
      test_hot_once_per_residency;
    Alcotest.test_case "admission errors" `Quick test_release_errors;
    Alcotest.test_case "integration" `Quick test_integration;
    Alcotest.test_case "graceful stop, idle client" `Quick
      test_graceful_stop_with_idle_client;
    Alcotest.test_case "stats consistent under load" `Quick
      test_stats_under_load;
  ]
