(* Distributed tracing end to end: trace-id wire encoding, ambient
   context linkage, the lenient trace envelope, deterministic
   cross-process merge (any input order -> byte-identical JSON), the
   trace-file round-trip through Cluster.Trace, live propagation across
   two peered in-process servers (client span, serve span and the hot
   cache-put replication span all share one trace id), the sampled
   request journal with rotation and a server's per-estimate cache
   outcome in it, SLO burn-rate windows under an injected clock, and the
   shard-labelled Prometheus merge. *)

module Json = Serve.Json
module Protocol = Serve.Protocol
module Span = Obs.Span
module Trace = Obs.Trace
module Endpoint = Cluster.Endpoint
module Router = Cluster.Router

let unwrap = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let poll ~what ?(attempts = 250) pred =
  let rec go n =
    if pred () then ()
    else if n = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.02;
      go (n - 1)
    end
  in
  go attempts

(* Span buffers are process-global; keep them clean around each test so
   suites do not leak spans into each other. *)
let with_recording f =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect ~finally:Span.reset f

(* --- id wire encoding ------------------------------------------------ *)

let test_id_hex () =
  let roundtrip id =
    match Span.id_of_hex (Span.id_to_hex id) with
    | Some back when back = id -> ()
    | Some back -> Alcotest.failf "%Ld round-tripped to %Ld" id back
    | None -> Alcotest.failf "%Ld: hex form did not parse" id
  in
  List.iter roundtrip
    [ 1L; 0xdeadbeefL; Int64.max_int; Int64.min_int; -1L (* ffffffffffffffff *) ];
  Alcotest.(check string)
    "sixteen lowercase digits" "00000000deadbeef"
    (Span.id_to_hex 0xdeadbeefL);
  List.iter
    (fun bad ->
      if Span.id_of_hex bad <> None then
        Alcotest.failf "%S should not parse as an id" bad)
    [ ""; "abc"; "00000000deadbee"; "00000000deadbeef0"; "00000000deadbeeg";
      "0x0000000000000001"; " 000000000000001" ];
  (* Fresh trace ids are nonzero and distinct. *)
  let a = Span.new_trace () and b = Span.new_trace () in
  if a.Span.trace_id = 0L then Alcotest.fail "zero trace id";
  if a.Span.trace_id = b.Span.trace_id then
    Alcotest.fail "two fresh traces shared an id"

(* --- ambient context links spans into a tree ------------------------- *)

let test_context_linkage () =
  with_recording (fun () ->
      let ctx = Span.new_trace () in
      Span.with_context ctx (fun () ->
          Span.with_ ~name:"outer" (fun () ->
              Span.with_ ~name:"inner" (fun () -> ())));
      (* Outside with_context the ambient context must be gone. *)
      (match Span.current_context () with
      | None -> ()
      | Some _ -> Alcotest.fail "context leaked out of with_context");
      Span.with_ ~name:"orphan" (fun () -> ());
      let spans = Span.drain () in
      let find name =
        match List.find_opt (fun (s : Span.t) -> s.name = name) spans with
        | Some s -> s
        | None -> Alcotest.failf "span %s was not recorded" name
      in
      let outer = find "outer" and inner = find "inner" in
      Alcotest.(check int64) "outer trace" ctx.Span.trace_id outer.trace_id;
      Alcotest.(check int64) "inner trace" ctx.Span.trace_id inner.trace_id;
      if outer.span_id = 0L then Alcotest.fail "outer got no span id";
      Alcotest.(check int64) "outer parents onto the context"
        ctx.Span.parent_span outer.parent_id;
      Alcotest.(check int64) "inner parents onto outer" outer.span_id
        inner.parent_id;
      if inner.span_id = outer.span_id then
        Alcotest.fail "inner and outer shared a span id";
      (* No ambient context: ids stay zero, the pre-tracing rendering. *)
      let orphan = find "orphan" in
      Alcotest.(check int64) "orphan trace" 0L orphan.trace_id;
      Alcotest.(check int64) "orphan span" 0L orphan.span_id)

(* --- trace envelope: stamped on requests, lenient on the way in ------ *)

let test_envelope () =
  let ctx = { Span.trace_id = 0x1234L; parent_span = 0x77L; sampled = false } in
  let json = Protocol.request_to_json ~trace:ctx Protocol.Ping in
  (match Protocol.trace_of_request json with
  | Some back ->
      Alcotest.(check int64) "trace id" ctx.Span.trace_id back.Span.trace_id;
      Alcotest.(check int64) "parent" ctx.Span.parent_span back.Span.parent_span;
      Alcotest.(check bool) "sampled" false back.Span.sampled
  | None -> Alcotest.fail "round-trip lost the trace envelope");
  (* The envelope must not disturb request parsing. *)
  (match Protocol.request_of_json json with
  | Ok Protocol.Ping -> ()
  | Ok _ -> Alcotest.fail "envelope changed the parsed request"
  | Error msg -> Alcotest.failf "request with envelope rejected: %s" msg);
  let parse s = Protocol.trace_of_request (unwrap (Json.of_string s)) in
  (* Unknown fields inside the envelope are ignored (newer clients). *)
  (match
     parse
       {|{"cmd": "ping", "trace": {"id": "00000000000000ff", "baggage": 1}}|}
   with
  | Some c ->
      Alcotest.(check int64) "id survives unknown fields" 0xffL c.Span.trace_id;
      Alcotest.(check bool) "sampled defaults true" true c.Span.sampled
  | None -> Alcotest.fail "unknown envelope field rejected the trace");
  (* Malformed envelopes degrade to "no context", never to an error. *)
  List.iter
    (fun s ->
      match parse s with
      | None -> ()
      | Some _ -> Alcotest.failf "malformed envelope parsed: %s" s)
    [
      {|{"cmd": "ping"}|};
      {|{"cmd": "ping", "trace": null}|};
      {|{"cmd": "ping", "trace": "00000000000000ff"}|};
      {|{"cmd": "ping", "trace": {}}|};
      {|{"cmd": "ping", "trace": {"id": 42}}|};
      {|{"cmd": "ping", "trace": {"id": "nope"}}|};
      {|{"cmd": "ping", "trace": {"id": "0000000000000000"}}|};
    ]

(* --- cross-process merge: deterministic, with flow links ------------- *)

let fake_span ?(args = []) ~name ~ts ~trace ~span_id ~parent () =
  {
    Span.name;
    args;
    ts_ns = ts;
    dur_ns = 1_000L;
    domain = 0;
    trace_id = trace;
    span_id;
    parent_id = parent;
  }

let fake_processes () =
  let client =
    {
      Trace.p_name = "loadgen";
      p_anchor = Some { Trace.wall_ns = 1_000_000_000L; mono_ns = 100L };
      p_spans =
        [ fake_span ~name:"client.estimate" ~ts:200L ~trace:0xabcL ~span_id:1L
            ~parent:0L () ];
    }
  and shard =
    {
      Trace.p_name = "127.0.0.1:4651";
      p_anchor = Some { Trace.wall_ns = 1_000_000_500L; mono_ns = 700L };
      p_spans =
        [ fake_span ~name:"serve.estimate" ~ts:900L ~trace:0xabcL ~span_id:2L
            ~parent:1L () ];
    }
  in
  (client, shard)

let test_merge_determinism () =
  let client, shard = fake_processes () in
  let m1 = Trace.merged_chrome_json [ client; shard ]
  and m2 = Trace.merged_chrome_json [ shard; client ] in
  Alcotest.(check string) "order-independent merge" m1 m2;
  let events =
    match unwrap (Json.of_string m1) with
    | Json.Obj fields -> (
        match List.assoc_opt "traceEvents" fields with
        | Some (Json.Arr evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array")
    | _ -> Alcotest.fail "merged trace is not an object"
  in
  let str json key =
    match json with
    | Json.Obj fields -> (
        match List.assoc_opt key fields with
        | Some (Json.Str s) -> Some s
        | _ -> None)
    | _ -> None
  in
  let phase ph = List.filter (fun e -> str e "ph" = Some ph) events in
  (* Both processes present, sorted by name: shard endpoint before loadgen. *)
  let names =
    List.filter_map
      (fun e -> if str e "name" = Some "process_name" then
          (match e with
          | Json.Obj fs -> (
              match List.assoc_opt "args" fs with
              | Some a -> str a "name"
              | None -> None)
          | _ -> None)
        else None)
      (phase "M")
  in
  Alcotest.(check (list string))
    "processes sorted by name" [ "127.0.0.1:4651"; "loadgen" ] names;
  (* The cross-process parent link became one flow start + one finish. *)
  Alcotest.(check int) "flow starts" 1 (List.length (phase "s"));
  Alcotest.(check int) "flow finishes" 1 (List.length (phase "f"));
  (* Flow ids key on the child span id. *)
  (match phase "s" with
  | [ s ] ->
      Alcotest.(check (option string))
        "flow id" (Some "0x0000000000000002") (str s "id")
  | _ -> ());
  (* Same-process parent links must not produce flows: merging one process
     alone yields none. *)
  let solo = Trace.merged_chrome_json [ shard ] in
  if
    List.exists
      (fun e -> str e "ph" = Some "s")
      (match unwrap (Json.of_string solo) with
      | Json.Obj fields -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (Json.Arr evs) -> evs
          | _ -> [])
      | _ -> [])
  then Alcotest.fail "single-process merge produced a flow event"

(* A trace file with zero spans (a shard that served nothing while traced)
   must still load and merge into a valid, empty timeline — not an
   error. *)
let test_empty_trace_merge () =
  let path = Filename.temp_file "trace_empty" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.write_file ~process_name:"idle-shard" ~path [];
      let proc = unwrap (Cluster.Trace.load path) in
      Alcotest.(check string) "process name" "idle-shard" proc.Trace.p_name;
      Alcotest.(check int) "no spans" 0 (List.length proc.Trace.p_spans);
      let merged = Trace.merged_chrome_json [ proc ] in
      match Json.of_string merged with
      | Error msg -> Alcotest.failf "merged timeline is not JSON: %s" msg
      | Ok (Json.Obj kvs) -> (
          match List.assoc_opt "traceEvents" kvs with
          | Some (Json.Arr (_ : Json.t list)) -> ()
          | _ -> Alcotest.fail "merged timeline lacks a traceEvents array")
      | Ok _ -> Alcotest.fail "merged timeline is not an object")

(* --- trace file round-trip through Cluster.Trace --------------------- *)

let test_file_roundtrip () =
  let spans =
    with_recording (fun () ->
        let ctx = Span.new_trace () in
        Span.with_context ctx (fun () ->
            Span.with_ ~name:"sweep.simulate"
              ~args:(fun () -> [ ("digest", "cafe") ])
              (fun () -> ()));
        Span.drain ())
  in
  let path = Filename.temp_file "trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.write_file ~process_name:"shard-x" ~path spans;
      let proc = unwrap (Cluster.Trace.load path) in
      Alcotest.(check string) "process name" "shard-x" proc.Trace.p_name;
      if proc.Trace.p_anchor = None then
        Alcotest.fail "clock anchor was not recovered";
      Alcotest.(check int)
        "span count" (List.length spans)
        (List.length proc.Trace.p_spans);
      let orig = List.hd spans and back = List.hd proc.Trace.p_spans in
      Alcotest.(check string) "name" orig.Span.name back.Span.name;
      Alcotest.(check int64) "trace id" orig.Span.trace_id back.Span.trace_id;
      Alcotest.(check int64) "span id" orig.Span.span_id back.Span.span_id;
      Alcotest.(check int64) "parent id" orig.Span.parent_id back.Span.parent_id;
      (* Trace/span/parent ids ride in args on the wire but come back as
         ids, not as leftover args. *)
      (match List.assoc_opt "trace" back.Span.args with
      | None -> ()
      | Some _ -> Alcotest.fail "id args leaked into plain args");
      Alcotest.(check (option string))
        "plain args survive" (Some "cafe")
        (List.assoc_opt "digest" back.Span.args);
      (* Chrome timestamps are microseconds, so the round-trip may quantise
         to 1us; the wall-clock position must hold to that tolerance. *)
      let dt = Int64.abs (Int64.sub back.Span.dur_ns orig.Span.dur_ns) in
      if dt > 1_000L then
        Alcotest.failf "duration drifted by %Ldns in the round-trip" dt)

(* --- live propagation across two peered servers ---------------------- *)

let start_server ?on_hot ?(hot_threshold = 0) () =
  let config =
    {
      Serve.Server.default_config with
      port = Some 0;
      jobs = Some 2;
      cache_capacity = 16;
      hot_threshold;
    }
  in
  Serve.Server.start ?on_hot ~config ()

let tcp_endpoint server =
  Endpoint.Tcp
    { host = "127.0.0.1"; port = Option.get (Serve.Server.tcp_port server) }

let test_cluster_propagation () =
  with_recording (fun () ->
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
          let w = Exp.Workload.make ~seed:7 ~num_apps:3 ~procs:2 () in
          let up =
            unwrap (Router.upload router ~payload:(Exp.Workload.to_string w))
          in
          let digest = up.Protocol.digest in
          let estimator = Contention.Analysis.Order 2 in
          let ctx = Span.new_trace () in
          Span.with_context ctx (fun () ->
              Span.with_ ~name:"client.estimate" (fun () ->
                  for _ = 1 to 2 do
                    (* Second hit crosses hot_threshold = 2: the owning
                       shard replicates the entry to its peer under this
                       same trace context. *)
                    match
                      Router.estimate_routed router ~digest ~estimator ()
                    with
                    | Router.Served _, shard ->
                        if shard = "" then Alcotest.fail "no answering shard"
                    | Router.Shed _, _ -> Alcotest.fail "unexpected shed"
                    | Router.Failed msg, _ -> Alcotest.failf "failed: %s" msg
                  done));
          let spans_named name () =
            List.filter
              (fun (s : Span.t) -> s.name = name)
              (Span.collect ())
          in
          (* The replication write happens on a detached thread; wait for
             its span (and the peer's serve span) to land. *)
          poll ~what:"cache-put replication spans" (fun () ->
              spans_named "router.cache_put" () <> []
              && spans_named "serve.cache-put" () <> []);
          let all = Span.collect () in
          let on_trace name =
            match
              List.filter
                (fun (s : Span.t) ->
                  s.name = name && s.trace_id = ctx.Span.trace_id)
                all
            with
            | [] -> Alcotest.failf "no %s span on the request trace" name
            | s :: _ -> s
          in
          let client = on_trace "client.estimate" in
          let route = on_trace "router.estimate" in
          let serve = on_trace "serve.estimate" in
          let forward = on_trace "router.cache_put" in
          let replica = on_trace "serve.cache-put" in
          (* One tree: router under client, serve under router (across the
             wire), and the replication chain under the traced request. *)
          Alcotest.(check int64)
            "router parents onto client span" client.Span.span_id
            route.Span.parent_id;
          Alcotest.(check int64)
            "serve parents onto router span" route.Span.span_id
            serve.Span.parent_id;
          Alcotest.(check int64)
            "replica serve parents onto the forward span" forward.Span.span_id
            replica.Span.parent_id;
          (* The forward span annotates digest and peer. *)
          Alcotest.(check (option string))
            "forward digest arg" (Some digest)
            (List.assoc_opt "digest" forward.Span.args)))

(* --- request journal -------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_journal () =
  let path = Filename.temp_file "journal" ".jsonl" in
  let rotated = path ^ ".1" in
  let cleanup p = try Sys.remove p with Sys_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      cleanup path;
      cleanup rotated)
    (fun () ->
      let j = Serve.Journal.create ~sample_every:4 ~max_bytes:0 path in
      (* Context-carrying requests follow the head-based bit exactly. *)
      let yes = { Span.trace_id = 1L; parent_span = 0L; sampled = true } in
      let no = { yes with Span.sampled = false } in
      Alcotest.(check bool) "sampled ctx" true
        (Serve.Journal.sampled j ~ctx:(Some yes));
      Alcotest.(check bool) "unsampled ctx" false
        (Serve.Journal.sampled j ~ctx:(Some no));
      (* Context-free requests fall back to 1-in-4. *)
      let fallback =
        List.init 8 (fun _ -> Serve.Journal.sampled j ~ctx:None)
      in
      Alcotest.(check (list bool))
        "fallback cadence"
        [ true; false; false; false; true; false; false; false ]
        fallback;
      Serve.Journal.record j
        (Json.Obj [ ("cmd", Json.Str "estimate"); ("ok", Json.Bool true) ]);
      Serve.Journal.close j;
      (match read_lines path with
      | [ line ] -> (
          match unwrap (Json.of_string line) with
          | Json.Obj fields ->
              Alcotest.(check bool)
                "record round-trips" true
                (List.assoc_opt "cmd" fields = Some (Json.Str "estimate"))
          | _ -> Alcotest.fail "journal line is not an object")
      | lines -> Alcotest.failf "expected 1 line, found %d" (List.length lines));
      cleanup path;
      (* Rotation: a budget below one line's size forces path -> path.1
         after every write, so .1 always holds exactly the previous line. *)
      let j = Serve.Journal.create ~sample_every:1 ~max_bytes:10 path in
      let entry tag = Json.Obj [ ("tag", Json.Str tag) ] in
      Serve.Journal.record j (entry "first");
      Serve.Journal.record j (entry "second");
      Alcotest.(check int) "written spans rotation" 2 (Serve.Journal.written j);
      Serve.Journal.close j;
      Alcotest.(check (list string))
        "previous generation kept"
        [ {|{"tag":"second"}|} ]
        (read_lines rotated))

(* A server's journal records each estimate's cache outcome, read back
   from the reply line it sent. *)
let test_journal_cache_outcome () =
  let path = Filename.temp_file "journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let config =
        {
          Serve.Server.default_config with
          port = Some 0;
          jobs = Some 1;
          journal_path = Some path;
          journal_sample = 1;
        }
      in
      let server = Serve.Server.start ~config () in
      let w = Exp.Workload.make ~seed:7 ~num_apps:3 ~procs:2 () in
      let send r =
        Serve.Server.handle_line server (Json.to_string (Protocol.request_to_json r))
      in
      let digest =
        Fun.protect
          ~finally:(fun () -> Serve.Server.stop server)
          (fun () ->
            let up = send (Protocol.Upload { payload = Exp.Workload.to_string w }) in
            let digest =
              (unwrap
                 (Result.bind
                    (Result.bind (Json.of_string up) Protocol.unwrap_reply)
                    Protocol.upload_reply_of_json))
                .Protocol.digest
            in
            let estimate =
              Protocol.Estimate
                { digest; usecase = None; estimator = Contention.Analysis.Order 2 }
            in
            ignore (send estimate : string);
            ignore (send estimate : string);
            digest)
      in
      let estimates =
        List.filter_map
          (fun line ->
            let r = unwrap (Json.of_string line) in
            match Json.member "cmd" r with
            | Some (Json.Str "estimate") -> Some r
            | _ -> None)
          (read_lines path)
      in
      let str name r = Option.bind (Json.member name r) Json.get_str in
      Alcotest.(check int) "two estimates journalled" 2 (List.length estimates);
      List.iter2
        (fun cached r ->
          Alcotest.(check (option string)) "cmd" (Some "estimate") (str "cmd" r);
          Alcotest.(check (option string)) "workload" (Some digest) (str "workload" r);
          Alcotest.(check (option string)) "outcome" (Some "ok") (str "outcome" r);
          Alcotest.(check (option bool))
            "cached" (Some cached)
            (Option.bind (Json.member "cached" r) Json.get_bool))
        [ false; true ] estimates)

(* --- SLO burn-rate windows ------------------------------------------- *)

let test_slo () =
  let now = ref 1000 in
  let slo =
    Serve.Slo.create ~now_s:(fun () -> !now) ~objective_ms:50. ~target:0.9 ()
  in
  let burn () = Serve.Slo.snapshot slo in
  Alcotest.(check (float 1e-9)) "empty 1m" 0. (burn ()).Serve.Slo.burn_1m;
  (* 4 requests, 2 over the objective: half the traffic is bad, a 10%
     budget -> burn 5x on both windows. *)
  Serve.Slo.record slo ~latency_s:0.010;
  Serve.Slo.record slo ~latency_s:0.049;
  Serve.Slo.record slo ~latency_s:0.051;
  Serve.Slo.record slo ~latency_s:2.0;
  let s = burn () in
  Alcotest.(check (float 1e-6)) "1m burn" 5. s.Serve.Slo.burn_1m;
  Alcotest.(check (float 1e-6)) "1h burn" 5. s.Serve.Slo.burn_1h;
  Alcotest.(check (float 1e-9)) "objective" 50. s.Serve.Slo.objective_ms;
  Alcotest.(check (float 1e-9)) "target" 0.9 s.Serve.Slo.target;
  (* 90 seconds later the minute window has forgotten, the hour has not. *)
  now := 1090;
  let s = burn () in
  Alcotest.(check (float 1e-6)) "1m window expired" 0. s.Serve.Slo.burn_1m;
  Alcotest.(check (float 1e-6)) "1h window remembers" 5. s.Serve.Slo.burn_1h;
  (* A shed burns budget with no latency at all. *)
  Serve.Slo.record_bad slo;
  let s = burn () in
  Alcotest.(check (float 1e-6)) "shed burns 1m" 10. s.Serve.Slo.burn_1m;
  (* Past the hour everything ages out. *)
  now := 1000 + 3700;
  let s = burn () in
  Alcotest.(check (float 1e-6)) "1h window expired" 0. s.Serve.Slo.burn_1h

(* Window-rollover boundaries: a bucket written at second [t] belongs to
   the trailing w-second window iff its stamp is in (now - w, now] — so it
   ages out at exactly [t + 60] (resp. [t + 3600]), not one second
   before. *)
let test_slo_rollover () =
  let now = ref 5000 in
  let slo =
    Serve.Slo.create ~now_s:(fun () -> !now) ~objective_ms:10. ~target:0.5 ()
  in
  let burn () = Serve.Slo.snapshot slo in
  (* One bad request: the whole window is bad, budget is 0.5 -> burn 2. *)
  Serve.Slo.record slo ~latency_s:1.0;
  Alcotest.(check (float 1e-9)) "fresh 1m" 2. (burn ()).Serve.Slo.burn_1m;
  Alcotest.(check (float 1e-9)) "fresh 1h" 2. (burn ()).Serve.Slo.burn_1h;
  (* 59 s later the request is still inside the minute window... *)
  now := 5000 + 59;
  Alcotest.(check (float 1e-9)) "59 s: still in 1m" 2.
    (burn ()).Serve.Slo.burn_1m;
  (* ...and at exactly 60 s it has rolled out, while the hour remembers. *)
  now := 5000 + 60;
  Alcotest.(check (float 1e-9)) "60 s: out of 1m" 0.
    (burn ()).Serve.Slo.burn_1m;
  Alcotest.(check (float 1e-9)) "60 s: still in 1h" 2.
    (burn ()).Serve.Slo.burn_1h;
  (* The same boundary for the hour window: in at 3599, out at 3600. *)
  now := 5000 + 3599;
  Alcotest.(check (float 1e-9)) "3599 s: still in 1h" 2.
    (burn ()).Serve.Slo.burn_1h;
  now := 5000 + 3600;
  Alcotest.(check (float 1e-9)) "3600 s: out of 1h" 0.
    (burn ()).Serve.Slo.burn_1h;
  (* One full ring revolution later the write lands on the same physical
     bucket; its stale contents must be cleared, not accumulated. *)
  Serve.Slo.record slo ~latency_s:0.001;
  Alcotest.(check (float 1e-9)) "ring bucket reused clean, 1m" 0.
    (burn ()).Serve.Slo.burn_1m;
  Alcotest.(check (float 1e-9)) "ring bucket reused clean, 1h" 0.
    (burn ()).Serve.Slo.burn_1h;
  Serve.Slo.record_bad slo;
  (* 1 bad of 2 in-window requests over a 0.5 budget: burn 1. *)
  Alcotest.(check (float 1e-9)) "burn after reuse" 1.
    (burn ()).Serve.Slo.burn_1m

(* --- stats reply carries the SLO over the wire ----------------------- *)

let test_stats_slo_wire () =
  let config =
    {
      Serve.Server.default_config with
      port = Some 0;
      jobs = Some 1;
      slo_objective_ms = 25.;
      slo_target = 0.99;
    }
  in
  let server = Serve.Server.start ~config () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () ->
      let reply = Serve.Server.handle_line server {|{"cmd": "stats"}|} in
      let payload = unwrap (Protocol.unwrap_reply (unwrap (Json.of_string reply))) in
      let stats = unwrap (Protocol.stats_reply_of_json payload) in
      Alcotest.(check (float 1e-9))
        "objective on the wire" 25. stats.Protocol.slo_objective_ms;
      Alcotest.(check (float 1e-9))
        "target on the wire" 0.99 stats.Protocol.slo_target;
      (* An exposition from an older server (no "slo" member) still
         parses, with the SLO zeroed. *)
      let stripped =
        match payload with
        | Json.Obj fields ->
            Json.Obj (List.filter (fun (k, _) -> k <> "slo") fields)
        | json -> json
      in
      let old = unwrap (Protocol.stats_reply_of_json stripped) in
      Alcotest.(check (float 1e-9))
        "older server defaults" 0. old.Protocol.slo_objective_ms)

(* --- shard-labelled Prometheus merge --------------------------------- *)

let test_promerge () =
  let shard_a =
    "# HELP requests_total Requests.\n\
     # TYPE requests_total counter\n\
     requests_total{outcome=\"ok\"} 5\n\
     requests_total{outcome=\"shed\"} 1\n\
     # HELP latency_seconds Latency.\n\
     # TYPE latency_seconds histogram\n\
     latency_seconds_bucket{le=\"0.1\"} 4\n\
     latency_seconds_bucket{le=\"+Inf\"} 6\n\
     latency_seconds_sum 0.42\n\
     latency_seconds_count 6\n"
  and shard_b =
    "# HELP requests_total Requests.\n\
     # TYPE requests_total counter\n\
     requests_total{outcome=\"ok\"} 2\n"
  in
  let merged = Cluster.Promerge.merge [ ("b", shard_b); ("a", shard_a) ] in
  Alcotest.(check string)
    "order-independent" merged
    (Cluster.Promerge.merge [ ("a", shard_a); ("b", shard_b) ]);
  let expected =
    "# HELP latency_seconds Latency.\n\
     # TYPE latency_seconds histogram\n\
     latency_seconds_bucket{shard=\"a\",le=\"0.1\"} 4\n\
     latency_seconds_bucket{shard=\"a\",le=\"+Inf\"} 6\n\
     latency_seconds_sum{shard=\"a\"} 0.42\n\
     latency_seconds_count{shard=\"a\"} 6\n\
     # HELP requests_total Requests.\n\
     # TYPE requests_total counter\n\
     requests_total{shard=\"a\",outcome=\"ok\"} 5\n\
     requests_total{shard=\"a\",outcome=\"shed\"} 1\n\
     requests_total{shard=\"b\",outcome=\"ok\"} 2\n"
  in
  Alcotest.(check string) "golden merge" expected merged;
  Alcotest.(check string) "empty merge" "" (Cluster.Promerge.merge [])

let suite =
  [
    Alcotest.test_case "trace-id hex round-trip" `Quick test_id_hex;
    Alcotest.test_case "ambient context links spans" `Quick
      test_context_linkage;
    Alcotest.test_case "wire trace envelope" `Quick test_envelope;
    Alcotest.test_case "merge is order-independent" `Quick
      test_merge_determinism;
    Alcotest.test_case "zero-span trace merges" `Quick test_empty_trace_merge;
    Alcotest.test_case "trace file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "propagation across peered servers" `Slow
      test_cluster_propagation;
    Alcotest.test_case "request journal" `Quick test_journal;
    Alcotest.test_case "journal cache outcome" `Quick test_journal_cache_outcome;
    Alcotest.test_case "slo burn windows" `Quick test_slo;
    Alcotest.test_case "slo window rollover" `Quick test_slo_rollover;
    Alcotest.test_case "stats carries the slo" `Quick test_stats_slo_wire;
    Alcotest.test_case "prometheus shard merge" `Quick test_promerge;
  ]
