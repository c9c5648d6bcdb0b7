(* The sharded serve cluster: endpoint parsing, consistent-hash ring
   properties (determinism, balance, minimal remapping), the blocking
   client pool's reconnect behaviour, server-side backpressure (shed
   verdicts under a full accept queue), peer cache replication via
   cache-put and the hot-entry hook, client timeouts against a
   non-accepting socket, and the open-loop load generator end-to-end
   against live shards — both under capacity (zero errors) and at
   saturation (shed verdicts, no crash). *)

module Json = Serve.Json
module Protocol = Serve.Protocol
module Endpoint = Cluster.Endpoint
module Ring = Cluster.Ring
module Pool = Cluster.Pool
module Router = Cluster.Router
module Loadgen = Cluster.Loadgen
open Fixtures.Daemon

let small_workload ?(seed = 7) () =
  Exp.Workload.make ~seed ~num_apps:3 ~procs:2 ()

(* --- endpoints ------------------------------------------------------- *)

let test_endpoint () =
  let roundtrip s =
    Alcotest.(check string) ("round-trip " ^ s) s
      (Endpoint.to_string (unwrap (Endpoint.of_string s)))
  in
  roundtrip "127.0.0.1:4557";
  roundtrip "example.org:80";
  roundtrip "unix:/tmp/shard.sock";
  (match unwrap (Endpoint.of_string ":9090") with
  | Endpoint.Tcp { host; port } ->
      Alcotest.(check string) "default host" "127.0.0.1" host;
      Alcotest.(check int) "port" 9090 port
  | Endpoint.Unix_sock _ -> Alcotest.fail "parsed as unix socket");
  List.iter
    (fun bad -> expect_error bad (Endpoint.of_string bad))
    [ ""; "unix:"; "nocolon"; "host:0"; "host:65536"; "host:x" ];
  let peers = unwrap (Endpoint.parse_list "a:1, b:2 ,unix:/s.sock") in
  Alcotest.(check int) "three peers" 3 (List.length peers);
  expect_error "duplicate" (Endpoint.parse_list "a:1,b:2,a:1");
  expect_error "empty list" (Endpoint.parse_list " , ");
  let file = Filename.temp_file "peers" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc "# cluster\n127.0.0.1:4557\n\nunix:/tmp/b.sock\n");
      let peers = unwrap (Endpoint.load_file file) in
      Alcotest.(check (list string))
        "file peers"
        [ "127.0.0.1:4557"; "unix:/tmp/b.sock" ]
        (List.map Endpoint.to_string peers));
  expect_error "missing file" (Endpoint.load_file "/nonexistent/peers.txt")

(* --- ring ------------------------------------------------------------ *)

let four_peers = [ "10.0.0.1:4557"; "10.0.0.2:4557"; "10.0.0.3:4557"; "10.0.0.4:4557" ]

let random_digests n =
  Array.init n (fun i -> Digest.to_hex (Digest.string (string_of_int i)))

let test_ring_determinism () =
  let r1 = Ring.create four_peers in
  let r2 = Ring.create four_peers in
  let keys = random_digests 1_000 in
  Array.iter
    (fun k ->
      Alcotest.(check string) "same owner" (Ring.lookup r1 k) (Ring.lookup r2 k))
    keys;
  (try
     ignore (Ring.create [] : Ring.t);
     Alcotest.fail "empty peer list accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Ring.create [ "a:1"; "a:1" ] : Ring.t);
    Alcotest.fail "duplicate peer accepted"
  with Invalid_argument _ -> ()

let test_ring_balance () =
  let ring = Ring.create four_peers in
  let n = 10_000 in
  let counts = Hashtbl.create 4 in
  Array.iter
    (fun k ->
      let p = Ring.lookup ring k in
      Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p)))
    (random_digests n);
  let ideal = float_of_int n /. 4. in
  List.iter
    (fun p ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts p) in
      let dev = Float.abs (float_of_int c -. ideal) /. ideal in
      if dev > 0.15 then
        Alcotest.failf "peer %s owns %d of %d keys (%.1f%% off ideal)" p c n
          (100. *. dev))
    four_peers

let test_ring_remove_remaps_minimally () =
  let ring = Ring.create four_peers in
  let removed = List.nth four_peers 2 in
  let ring' = Ring.remove ring removed in
  Alcotest.(check (list string))
    "peer list shrinks"
    (List.filter (fun p -> p <> removed) four_peers)
    (Ring.peers ring');
  let moved = ref 0 in
  Array.iter
    (fun k ->
      let before = Ring.lookup ring k in
      let after = Ring.lookup ring' k in
      if before = removed then begin
        incr moved;
        if after = removed then Alcotest.fail "key still owned by removed peer"
      end
      else
        Alcotest.(check string) "unaffected key kept its owner" before after)
    (random_digests 10_000);
  if !moved = 0 then Alcotest.fail "removed peer owned no keys";
  (* Removing an unknown peer is a no-op; removing the last is an error. *)
  Alcotest.(check (list string))
    "unknown removal is a no-op" (Ring.peers ring')
    (Ring.peers (Ring.remove ring' "unknown:1"));
  let solo = Ring.create [ "a:1" ] in
  try
    ignore (Ring.remove solo "a:1" : Ring.t);
    Alcotest.fail "removed the last peer"
  with Invalid_argument _ -> ()

let test_ring_successors () =
  let ring = Ring.create four_peers in
  Array.iter
    (fun k ->
      let succ = Ring.successors ring k in
      Alcotest.(check int) "all peers listed" 4 (List.length succ);
      Alcotest.(check string) "head is the owner" (Ring.lookup ring k)
        (List.hd succ);
      Alcotest.(check (list string))
        "distinct peers" (List.sort_uniq compare succ)
        (List.sort compare succ))
    (random_digests 50)

(* --- live-server helpers --------------------------------------------- *)

let next_sock = Atomic.make 0

let fresh_sock_path () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "contention-cluster-%d-%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add next_sock 1))

let gauge_value registry name =
  List.find_map
    (fun (e : Obs.Metric.exposed) ->
      if e.e_name <> name then None
      else
        match e.e_series with
        | (_, Obs.Metric.Sample v) :: _ -> Some v
        | _ -> None)
    (Obs.Metric.export registry)

(* --- pool: reconnect across a server restart ------------------------- *)

let test_pool_reconnect () =
  let path = fresh_sock_path () in
  let server1 = start_server ~unix_path:path () in
  let pool = Pool.create ~size:2 ~timeout:2. (Endpoint.Unix_sock path) in
  Fun.protect
    ~finally:(fun () -> Pool.close pool)
    (fun () ->
      unwrap (Pool.with_client pool Serve.Client.ping);
      Alcotest.(check int) "no reconnects yet" 0 (Pool.reconnects pool);
      Serve.Server.stop server1;
      (* Same address, new process lifetime: the pooled connection is now
         stale and the next use must transparently redial. *)
      let server2 = start_server ~unix_path:path () in
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop server2)
        (fun () ->
          unwrap (Pool.with_client pool Serve.Client.ping);
          if Pool.reconnects pool < 1 then
            Alcotest.fail "stale connection was not replaced"))

(* --- backpressure: shed verdict when the accept queue is full -------- *)

let test_shed_verdict () =
  let server = start_server ~jobs:1 ~max_queue:1 () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () ->
      let port = Option.get (Serve.Server.tcp_port server) in
      let connect () = unwrap (Serve.Client.connect ~port ()) in
      (* A completed round-trip pins the single worker to this client. *)
      let a = connect () in
      unwrap (Serve.Client.ping a);
      (* B lands in the accept queue (depth 1 = the bound). *)
      let b = connect () in
      poll ~what:"queued connection" (fun () ->
          gauge_value
            (Serve.Server.metrics_registry server)
            "contention_serve_queue_depth"
          = Some 1.);
      (* C must be refused with a shed verdict, not queued or dropped. *)
      let c = connect () in
      (match
         Serve.Client.request_classified c
           (Protocol.request_to_json Protocol.Ping)
       with
      | Ok (Protocol.Reply_shed { queue_depth }) ->
          Alcotest.(check int) "reported depth" 1 queue_depth
      | Ok (Protocol.Reply_ok _) -> Alcotest.fail "served beyond the bound"
      | Ok (Protocol.Reply_error msg) -> Alcotest.failf "error, not shed: %s" msg
      | Error msg -> Alcotest.failf "transport error, not shed: %s" msg);
      Serve.Client.close c;
      (* Freeing the worker drains the queue: B gets served, and the shed
         shows up in the stats counters. *)
      Serve.Client.close a;
      unwrap (Serve.Client.ping b);
      let stats = unwrap (Serve.Client.stats b) in
      Alcotest.(check int) "queue capacity" 1 stats.Protocol.queue_capacity;
      if stats.Protocol.shed < 1 then Alcotest.fail "shed not counted";
      Serve.Client.close b)

(* --- cache-put: peer cache replication ------------------------------- *)

(* Rows an estimate of every application of [w] could have produced:
   the workload's names and isolation periods, the given periods. *)
let forwarded_rows w periods =
  let names = Exp.Workload.names w and iso = Exp.Workload.isolation_periods w in
  List.mapi
    (fun i period ->
      {
        Protocol.app = names.(i);
        period;
        isolation_period = iso.(i);
        throughput = 1. /. period;
      })
    periods

let test_cache_put () =
  let server = start_server () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () ->
      let port = Option.get (Serve.Server.tcp_port server) in
      let c = unwrap (Serve.Client.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let w = small_workload () in
          let up = unwrap (Serve.Client.upload c ~payload:(Exp.Workload.to_string w)) in
          let digest = up.Protocol.digest in
          let mask = Contention.Usecase.full ~napps:3 in
          let rows = forwarded_rows w [ 10.; 20.; 30. ] in
          (* Valid install: the next estimate answers from cache with the
             forwarded rows, proving the key was canonicalised to match. *)
          unwrap
            (Serve.Client.cache_put c ~digest ~mask ~estimator:"o2" ~rows);
          let e =
            unwrap
              (Serve.Client.estimate c ~digest
                 ~estimator:(Contention.Analysis.Order 2) ())
          in
          if not e.Protocol.cached then
            Alcotest.fail "installed entry missed the cache";
          Alcotest.(check int) "forwarded rows served" 3 (List.length e.rows);
          if e.rows <> rows then Alcotest.fail "row content";
          (* Rejections: unknown digest, bad estimator, bad mask. *)
          expect_error "unknown digest"
            (Serve.Client.cache_put c ~digest:"feedface" ~mask ~estimator:"o2"
               ~rows);
          expect_error "bad estimator"
            (Serve.Client.cache_put c ~digest ~mask ~estimator:"nonsense" ~rows);
          expect_error "mask out of range"
            (Serve.Client.cache_put c ~digest ~mask:(1 lsl 20) ~estimator:"o2"
               ~rows);
          expect_error "negative mask"
            (Serve.Client.cache_put c ~digest ~mask:(-1) ~estimator:"o2" ~rows)))

(* Only rows an estimate could have produced are installed: one per
   application of the mask, ascending, named and isolated as in the
   workload, with a positive period and its reciprocal as throughput. *)
let test_cache_put_rows () =
  let server = start_server () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () ->
      let port = Option.get (Serve.Server.tcp_port server) in
      let c = unwrap (Serve.Client.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let w = small_workload () in
          let up = unwrap (Serve.Client.upload c ~payload:(Exp.Workload.to_string w)) in
          let digest = up.Protocol.digest in
          let mask = Contention.Usecase.full ~napps:3 in
          let rows = forwarded_rows w [ 10.; 20.; 30. ] in
          let with_row i f = List.mapi (fun j r -> if i = j then f r else r) rows in
          List.iter
            (fun (what, rows) ->
              expect_error what
                (Serve.Client.cache_put c ~digest ~mask ~estimator:"wc" ~rows))
            [
              ("no rows", []);
              ("too few rows", List.tl rows);
              ("too many rows", rows @ [ List.hd rows ]);
              ("rows out of order", List.rev rows);
              ("unknown name", with_row 1 (fun r -> { r with Protocol.app = "ZZZ" }));
              ( "isolation period off by one ulp",
                with_row 2 (fun r ->
                    { r with Protocol.isolation_period = Float.succ r.Protocol.isolation_period }) );
              ( "negative period",
                with_row 0 (fun r ->
                    { r with Protocol.period = -5.; throughput = 1. /. -5. }) );
              ("zero period", with_row 0 (fun r -> { r with Protocol.period = 0.; throughput = 0. }));
              ( "throughput off by one ulp",
                with_row 1 (fun r ->
                    { r with Protocol.throughput = Float.succ r.Protocol.throughput }) );
              ( "a stray row",
                [ { Protocol.app = "ZZZ"; period = -5.; isolation_period = 0.; throughput = 3. } ] );
            ];
          (* Nothing was installed: the estimate is computed afresh. *)
          let e =
            unwrap (Serve.Client.estimate c ~digest ~estimator:Contention.Analysis.Worst_case ())
          in
          if e.Protocol.cached then Alcotest.fail "a refused cache-put was installed"))

(* --- hot-entry forwarding: server hook -> router -> peer cache ------- *)

let test_hot_forwarding () =
  let wiring = ref None in
  let on_hot_for self entry =
    match !wiring with
    | Some router -> Router.forward_hot router ~self:(Some self) entry
    | None -> ()
  in
  let self_a = ref None and self_b = ref None in
  let server_a =
    start_server ~hot_threshold:2
      ~on_hot:(fun e -> Option.iter (fun s -> on_hot_for s e) !self_a)
      ()
  in
  let server_b =
    start_server ~hot_threshold:2
      ~on_hot:(fun e -> Option.iter (fun s -> on_hot_for s e) !self_b)
      ()
  in
  let ep_a = tcp_endpoint server_a and ep_b = tcp_endpoint server_b in
  self_a := Some ep_a;
  self_b := Some ep_b;
  let router = Router.create ~pool_size:1 ~timeout:5. [ ep_a; ep_b ] in
  wiring := Some router;
  Fun.protect
    ~finally:(fun () ->
      Router.close router;
      Serve.Server.stop server_a;
      Serve.Server.stop server_b)
    (fun () ->
      let w = small_workload () in
      let up = unwrap (Router.upload router ~payload:(Exp.Workload.to_string w)) in
      let digest = up.Protocol.digest in
      let owner, other =
        if Ring.lookup (Router.ring router) digest = Endpoint.to_string ep_a
        then (server_a, server_b)
        else (server_b, server_a)
      in
      let estimator = Contention.Analysis.Order 2 in
      let port = Option.get (Serve.Server.tcp_port owner) in
      let c = unwrap (Serve.Client.connect ~port ()) in
      let e1 =
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            let e1 = unwrap (Serve.Client.estimate c ~digest ~estimator ()) in
            (* Second request crosses hot_threshold = 2 and fires the hook. *)
            ignore
              (unwrap (Serve.Client.estimate c ~digest ~estimator ())
                : Protocol.estimate_reply);
            e1)
      in
      poll ~what:"hot-entry forward" (fun () -> fst (Router.forward_counts router) >= 1);
      (* The peer must now answer from cache without ever having computed
         the estimate itself, with bit-identical rows. *)
      let port = Option.get (Serve.Server.tcp_port other) in
      let c = unwrap (Serve.Client.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let e2 = unwrap (Serve.Client.estimate c ~digest ~estimator ()) in
          if not e2.Protocol.cached then
            Alcotest.fail "peer did not serve the forwarded entry from cache";
          List.iter2
            (fun (r1 : Protocol.estimate_row) (r2 : Protocol.estimate_row) ->
              Alcotest.(check string) "app" r1.app r2.app;
              if
                Int64.bits_of_float r1.period
                <> Int64.bits_of_float r2.period
              then Alcotest.failf "period of %s differs across peers" r1.app)
            e1.Protocol.rows e2.Protocol.rows))

(* --- client timeout against a non-accepting socket ------------------- *)

let test_client_timeout () =
  let path = fresh_sock_path () in
  let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 1;
      (* The kernel backlog completes the connect, but nobody will ever
         accept or reply: only the read deadline gets the client out. *)
      let c = unwrap (Serve.Client.connect_unix ~timeout:0.3 path) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let t0 = Obs.Clock.now_ns () in
          (match Serve.Client.ping c with
          | Ok () -> Alcotest.fail "ping succeeded with no server"
          | Error msg ->
              Alcotest.(check string) "clean timeout error" "transport: timeout"
                msg);
          let elapsed = Obs.Clock.elapsed_s ~since:t0 in
          if elapsed > 5. then
            Alcotest.failf "timeout took %.1fs for a 0.3s deadline" elapsed))

(* --- router: routing and failover ------------------------------------ *)

let test_router_failover () =
  let server_a = start_server () and server_b = start_server () in
  let ep_a = tcp_endpoint server_a and ep_b = tcp_endpoint server_b in
  let router = Router.create ~pool_size:2 ~timeout:2. [ ep_a; ep_b ] in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      Router.close router;
      Serve.Server.stop server_a;
      if not !stopped then Serve.Server.stop server_b)
    (fun () ->
      let w = small_workload () in
      let up = unwrap (Router.upload router ~payload:(Exp.Workload.to_string w)) in
      let digest = up.Protocol.digest in
      let estimator = Contention.Analysis.Order 2 in
      (match fst (Router.estimate_routed router ~digest ~estimator ()) with
      | Router.Served reply ->
          Alcotest.(check int) "rows" 3 (List.length reply.Protocol.rows)
      | Router.Shed _ -> Alcotest.fail "shed on an idle cluster"
      | Router.Failed msg -> Alcotest.failf "estimate failed: %s" msg);
      (* Kill the digest's owner: the router must fail over to the
         surviving peer, which has the workload thanks to the broadcast
         upload. *)
      let owner_name = Ring.lookup (Router.ring router) digest in
      let owner, _survivor =
        if owner_name = Endpoint.to_string ep_a then (server_a, server_b)
        else (server_b, server_a)
      in
      if owner == server_b then begin
        Serve.Server.stop server_b;
        stopped := true
      end
      else Serve.Server.stop server_a;
      (* The dead owner's pool burns its dial backoff, then the next ring
         peer serves the estimate. *)
      if owner == server_a then begin
        (* keep finally from double-stopping a *)
        ()
      end;
      match fst (Router.estimate_routed router ~digest ~estimator ()) with
      | Router.Served reply ->
          Alcotest.(check int) "rows after failover" 3
            (List.length reply.Protocol.rows)
      | Router.Shed _ -> Alcotest.fail "shed after failover"
      | Router.Failed msg -> Alcotest.failf "failover failed: %s" msg)

(* --- loadgen: burst under capacity, then saturation ------------------ *)

let test_loadgen_burst () =
  let server_a = start_server () and server_b = start_server () in
  let router =
    Router.create ~pool_size:2 ~timeout:5.
      [ tcp_endpoint server_a; tcp_endpoint server_b ]
  in
  Fun.protect
    ~finally:(fun () ->
      Router.close router;
      Serve.Server.stop server_a;
      Serve.Server.stop server_b)
    (fun () ->
      let digests =
        Array.init 4 (fun i ->
            let w = small_workload ~seed:(100 + i) () in
            (unwrap (Router.upload router ~payload:(Exp.Workload.to_string w)))
              .Protocol.digest)
      in
      let config =
        {
          Loadgen.rate = 200.;
          duration_s = 0.5;
          concurrency = 4;
          arrival = Loadgen.Poisson;
          skew = 1.0;
          seed = 42;
          estimator = Contention.Analysis.Order 2;
          trace_sample = 0;
        }
      in
      let registry = Obs.Metric.create_registry () in
      let report = Loadgen.run ~registry config ~router ~digests in
      Alcotest.(check int) "offered = rate x duration" 100 report.Loadgen.offered;
      Alcotest.(check int) "all served" 100 report.Loadgen.ok;
      Alcotest.(check int) "no errors" 0 report.Loadgen.errors;
      Alcotest.(check int) "no sheds under capacity" 0 report.Loadgen.shed;
      if report.Loadgen.p50_ms <= 0. then Alcotest.fail "no latency measured";
      if report.Loadgen.p99_ms < report.Loadgen.p50_ms then
        Alcotest.fail "p99 below p50";
      (* The harness's own telemetry captured every served request. *)
      (match
         List.find_opt
           (fun (e : Obs.Metric.exposed) ->
             e.e_name = "contention_loadgen_latency_seconds")
           (Obs.Metric.export registry)
       with
      | Some { e_series = [ (_, Obs.Metric.Buckets { count; _ }) ]; _ } ->
          Alcotest.(check int) "histogram count" 100 count
      | _ -> Alcotest.fail "latency histogram missing");
      (* And the report renders to the bench schema. *)
      match Json.of_string (Json.to_string (Loadgen.report_to_json report)) with
      | Ok (Json.Obj kvs) ->
          Alcotest.(check bool) "schema tag" true
            (List.mem_assoc "schema" kvs && List.mem_assoc "loadgen" kvs)
      | _ -> Alcotest.fail "report JSON does not round-trip")

let test_loadgen_saturation () =
  (* One worker, queue bound 1.  A raw connection that never sends a
     newline holds the worker, so the first router dial waits in the accept
     queue and every further dial is shed — on every run, not only when the
     arrivals happen to overlap.  Once the server has shed one, the holder
     hangs up and the queued connection is served. *)
  let server = start_server ~jobs:1 ~max_queue:1 () in
  let registry = Serve.Server.metrics_registry server in
  let metric name () = Option.value ~default:0. (gauge_value registry name) in
  let active = metric "contention_serve_active_connections" in
  let server_sheds = metric "contention_serve_shed_total" in
  let port = Option.get (Serve.Server.tcp_port server) in
  let router =
    Router.create ~pool_size:8 ~timeout:0.5 [ tcp_endpoint server ]
  in
  let router_closed = ref false in
  let close_router () =
    if not !router_closed then begin
      router_closed := true;
      Router.close router
    end
  in
  Fun.protect
    ~finally:(fun () ->
      close_router ();
      Serve.Server.stop server)
    (fun () ->
      let w = small_workload ~seed:200 () in
      let digest =
        let c = unwrap (Serve.Client.connect ~port ()) in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            (unwrap
               (Serve.Client.upload c ~payload:(Exp.Workload.to_string w)))
              .Protocol.digest)
      in
      poll ~what:"upload connection released" (fun () -> active () = 0.);
      let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect holder (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      poll ~what:"worker held" (fun () -> active () = 1.);
      let release =
        Thread.create
          (fun () ->
            (* Bounded: the holder goes within ~5 s whatever happens. *)
            let rec wait n =
              if server_sheds () < 1. && n > 0 then begin
                Unix.sleepf 0.001;
                wait (n - 1)
              end
            in
            wait 5_000;
            Unix.close holder)
          ()
      in
      let config =
        {
          Loadgen.rate = 2000.;
          duration_s = 0.5;
          concurrency = 8;
          arrival = Loadgen.Uniform;
          skew = 0.;
          seed = 7;
          estimator = Contention.Analysis.Order 2;
          trace_sample = 0;
        }
      in
      let report =
        Fun.protect
          ~finally:(fun () -> Thread.join release)
          (fun () ->
            Loadgen.run
              ~registry:(Obs.Metric.create_registry ())
              config ~router ~digests:[| digest |])
      in
      if report.Loadgen.shed = 0 then
        Alcotest.fail "saturation produced no shed verdicts";
      if report.Loadgen.ok = 0 then
        Alcotest.fail "saturation starved every request";
      (* The server survived and owns the books: its shed counter saw what
         the clients saw.  Close the router first (its idle pooled
         connections still pin the worker and fill the queue), then keep
         probing: until the dead connections drain, a fresh probe can
         itself be shed — which is the backpressure working, not a
         failure. *)
      close_router ();
      let rec probe_stats attempts =
        let c = unwrap (Serve.Client.connect ~port ()) in
        let r =
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () -> Serve.Client.stats c)
        in
        match r with
        | Ok stats -> stats
        | Error msg when attempts > 0 ->
            ignore (msg : string);
            Unix.sleepf 0.02;
            probe_stats (attempts - 1)
        | Error msg -> Alcotest.failf "server unreachable after drain: %s" msg
      in
      let stats = probe_stats 200 in
      if stats.Protocol.shed < report.Loadgen.shed then
        Alcotest.failf "server counted %d sheds, clients saw %d"
          stats.Protocol.shed report.Loadgen.shed)

(* --- protocol: cache-put codec and the shed envelope ----------------- *)

let test_protocol_shed_and_cache_put () =
  let req =
    Protocol.Cache_put
      {
        digest = "cafebabe";
        mask = 5;
        estimator = "second-order";
        rows =
          [
            {
              Protocol.app = "x";
              period = 1.5;
              isolation_period = 1.25;
              throughput = 0.625;
            };
          ];
      }
  in
  (match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok req' -> Alcotest.(check bool) "cache-put round-trip" true (req = req')
  | Error msg -> Alcotest.failf "cache-put does not round-trip: %s" msg);
  (match Protocol.classify_reply (Protocol.shed ~queue_depth:7) with
  | Protocol.Reply_shed { queue_depth } ->
      Alcotest.(check int) "shed depth" 7 queue_depth
  | _ -> Alcotest.fail "shed envelope misclassified");
  (match Protocol.classify_reply (Protocol.ok (Json.Num 1.)) with
  | Protocol.Reply_ok (Json.Num 1.) -> ()
  | _ -> Alcotest.fail "ok envelope misclassified");
  (match Protocol.classify_reply (Protocol.error "boom") with
  | Protocol.Reply_error "boom" -> ()
  | _ -> Alcotest.fail "error envelope misclassified");
  (match Protocol.classify_reply (Json.Obj []) with
  | Protocol.Reply_error _ -> ()
  | _ -> Alcotest.fail "junk envelope not an error");
  (* Shed-unaware callers degrade to an error mentioning the shed. *)
  match Protocol.unwrap_reply (Protocol.shed ~queue_depth:3) with
  | Error msg when String.length msg >= 4 && String.sub msg 0 4 = "shed" -> ()
  | Error msg -> Alcotest.failf "shed mapped to unrelated error: %s" msg
  | Ok _ -> Alcotest.fail "shed unwrapped as success"

let suite =
  [
    Alcotest.test_case "endpoint parsing" `Quick test_endpoint;
    Alcotest.test_case "ring determinism" `Quick test_ring_determinism;
    Alcotest.test_case "ring balance (4 shards, 10k keys)" `Quick
      test_ring_balance;
    Alcotest.test_case "ring minimal remapping" `Quick
      test_ring_remove_remaps_minimally;
    Alcotest.test_case "ring successors" `Quick test_ring_successors;
    Alcotest.test_case "protocol shed + cache-put" `Quick
      test_protocol_shed_and_cache_put;
    Alcotest.test_case "pool reconnect" `Quick test_pool_reconnect;
    Alcotest.test_case "shed verdict" `Quick test_shed_verdict;
    Alcotest.test_case "cache-put replication" `Quick test_cache_put;
    Alcotest.test_case "cache-put row rules" `Quick test_cache_put_rows;
    Alcotest.test_case "hot-entry forwarding" `Quick test_hot_forwarding;
    Alcotest.test_case "client timeout" `Quick test_client_timeout;
    Alcotest.test_case "router failover" `Quick test_router_failover;
    Alcotest.test_case "loadgen burst" `Quick test_loadgen_burst;
    Alcotest.test_case "loadgen saturation" `Quick test_loadgen_saturation;
  ]
