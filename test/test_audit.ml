(* The shadow auditor: the Page-Hinkley drift detector on synthetic error
   streams, the head-based sampler, queue-full drops, and the end-to-end
   path — a live server with audit_sample = 1 replaying a served estimate
   through the simulator, with the accuracy section on the stats wire, the
   per-estimator error histogram in the Prometheus exposition, the audit
   journal record joining the originating request by trace id, and the
   replay span carrying the originating trace.  Plus the degenerate join:
   an empty journal joins to nothing without error. *)

module Json = Serve.Json
module Protocol = Serve.Protocol
module Audit = Serve.Audit
module Span = Obs.Span
open Fixtures.Daemon

(* --- drift detector --------------------------------------------------- *)

let test_drift_steady () =
  let d = Audit.Drift.create ~delta:0.005 ~lambda:0.25 ~min_samples:5 () in
  (* A constant error stream is calibration, not drift. *)
  for _ = 1 to 200 do
    if Audit.Drift.observe d 0.03 then Alcotest.fail "alarm on a steady stream"
  done;
  Alcotest.(check bool) "not flagged" false (Audit.Drift.flagged d);
  Alcotest.(check int) "no alarms" 0 (Audit.Drift.alarms d);
  (* Nor is stationary noise: 2,000 errors uniform in 0.03 ± 0.02 at the
     default delta and lambda.  The slack delta in each cumulative sum is
     what keeps the noise from adding up to an alarm; without it in the
     upward sum this stream alarms 4 times. *)
  let d = Audit.Drift.create () in
  let rng = Sdfgen.Rng.create 1 in
  for i = 1 to 2_000 do
    if Audit.Drift.observe d (0.01 +. Sdfgen.Rng.float rng 0.04) then
      Alcotest.failf "alarm at sample %d of a stationary stream" i
  done

let test_drift_shift_up () =
  let d = Audit.Drift.create ~delta:0. ~lambda:0.5 ~min_samples:5 () in
  for _ = 1 to 50 do
    ignore (Audit.Drift.observe d 0.01 : bool)
  done;
  Alcotest.(check bool) "clean before the shift" false (Audit.Drift.flagged d);
  (* The error level jumps: the cumulative upward deviation must cross
     lambda within a few observations. *)
  let alarmed = ref false in
  for _ = 1 to 10 do
    if Audit.Drift.observe d 0.5 then alarmed := true
  done;
  Alcotest.(check bool) "upward shift alarms" true !alarmed;
  Alcotest.(check bool) "flagged is sticky" true (Audit.Drift.flagged d);
  if Audit.Drift.alarms d < 1 then Alcotest.fail "alarm not counted";
  (* Detection restarted after the alarm; the flag stays up on a now-steady
     stream. *)
  for _ = 1 to 50 do
    ignore (Audit.Drift.observe d 0.5 : bool)
  done;
  Alcotest.(check bool) "still flagged" true (Audit.Drift.flagged d)

let test_drift_shift_down () =
  let d = Audit.Drift.create ~delta:0. ~lambda:0.5 ~min_samples:5 () in
  for _ = 1 to 50 do
    ignore (Audit.Drift.observe d 0.01 : bool)
  done;
  let alarmed = ref false in
  for _ = 1 to 10 do
    if Audit.Drift.observe d (-0.5) then alarmed := true
  done;
  Alcotest.(check bool) "downward shift alarms" true !alarmed

let test_drift_min_samples () =
  (* The same decisive shift stays silent while n < min_samples. *)
  let d = Audit.Drift.create ~delta:0. ~lambda:0.5 ~min_samples:1000 () in
  for _ = 1 to 5 do
    ignore (Audit.Drift.observe d 0. : bool)
  done;
  for _ = 1 to 20 do
    if Audit.Drift.observe d 10. then Alcotest.fail "alarm before min_samples"
  done;
  Alcotest.(check bool) "not flagged" false (Audit.Drift.flagged d)

(* --- config ------------------------------------------------------------ *)

(* A replay stops at the first event past the horizon: a NaN or infinite
   one would wedge the replay domain, a non-positive one yields nothing.
   The drift detector needs a positive threshold and a non-negative
   slack. *)
let test_rejects_bad_horizon () =
  let rejects what config =
    match Audit.create ~config ~registry:(Obs.Metric.create_registry ()) () with
    | exception Invalid_argument _ -> ()
    | a ->
        Audit.stop a;
        Alcotest.failf "%s accepted" what
  in
  List.iter
    (fun horizon ->
      rejects
        (Printf.sprintf "horizon %g" horizon)
        { Audit.default_config with Audit.horizon })
    [ nan; infinity; -5.; 0. ];
  List.iter
    (fun drift_lambda ->
      rejects
        (Printf.sprintf "drift_lambda %g" drift_lambda)
        { Audit.default_config with Audit.drift_lambda })
    [ nan; infinity; -5.; 0. ];
  List.iter
    (fun drift_delta ->
      rejects
        (Printf.sprintf "drift_delta %g" drift_delta)
        { Audit.default_config with Audit.drift_delta })
    [ nan; infinity; -5. ]

(* --- head sampler ------------------------------------------------------ *)

let test_sampler () =
  let registry = Obs.Metric.create_registry () in
  let a =
    Audit.create
      ~config:{ Audit.default_config with Audit.sample_every = 4 }
      ~registry ()
  in
  Fun.protect
    ~finally:(fun () -> Audit.stop a)
    (fun () ->
      let picks = List.init 12 (fun _ -> Audit.sampled a) in
      Alcotest.(check (list bool))
        "1-in-4 head sampling"
        [
          true; false; false; false;
          true; false; false; false;
          true; false; false; false;
        ]
        picks)

(* --- end to end -------------------------------------------------------- *)

let contains ~what hay affix =
  if not (Fixtures.contains ~affix hay) then
    Alcotest.failf "%s lacks %S:\n%s" what affix hay

let read_json_lines path =
  In_channel.with_open_text path (fun ic ->
      In_channel.input_lines ic
      |> List.map (fun l -> unwrap (Json.of_string l)))

let str_member name = function
  | Json.Obj kvs -> (
      match List.assoc_opt name kvs with Some (Json.Str s) -> Some s | _ -> None)
  | _ -> None

(* Join journal records against spans by trace id: the audit line must hang
   off the same trace as the request that triggered it. *)
let join_by_trace records spans =
  List.filter_map
    (fun r ->
      match str_member "trace" r with
      | None -> None
      | Some hex ->
          let matching =
            List.filter
              (fun (s : Span.t) -> Span.id_to_hex s.Span.trace_id = hex)
              spans
          in
          Some (r, matching))
    records

let test_audit_end_to_end () =
  let w = Exp.Workload.make ~seed:7 ~num_apps:3 ~procs:2 () in
  let journal_path = Filename.temp_file "audit_journal" ".jsonl" in
  let config =
    {
      Serve.Server.default_config with
      port = Some 0;
      unix_path = None;
      jobs = Some 2;
      audit_sample = 1;
      audit_horizon = 50_000.;
      journal_path = Some journal_path;
      journal_sample = 1;
      shard = Some "s0";
    }
  in
  Span.reset ();
  Span.set_enabled true;
  let server = Serve.Server.start ~config () in
  let cleanup () =
    Serve.Server.stop server;
    Span.reset ();
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ journal_path; journal_path ^ ".1" ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let port = Option.get (Serve.Server.tcp_port server) in
      let c = unwrap (Serve.Client.connect ~port ()) in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let up =
            unwrap (Serve.Client.upload c ~payload:(Exp.Workload.to_string w))
          in
          let digest = up.Protocol.digest in
          let ctx = Span.new_trace () in
          let reply =
            Span.with_context ctx (fun () ->
                unwrap
                  (Serve.Client.estimate c ~digest
                     ~estimator:(Contention.Analysis.Order 2) ()))
          in
          if reply.Protocol.rows = [] then Alcotest.fail "empty estimate";
          (match Serve.Server.audit server with
          | None -> Alcotest.fail "auditor absent with audit_sample = 1"
          | Some a -> Audit.drain a);
          (* Accuracy section on the stats wire. *)
          let s = unwrap (Serve.Client.stats c) in
          let au = s.Protocol.audit in
          Alcotest.(check int) "sample rate" 1 au.Protocol.audit_sample;
          Alcotest.(check int) "submitted" 1 au.Protocol.audit_submitted;
          Alcotest.(check int) "completed" 1 au.Protocol.audit_completed;
          Alcotest.(check int) "dropped" 0 au.Protocol.audit_dropped;
          Alcotest.(check int) "failed" 0 au.Protocol.audit_failed;
          Alcotest.(check int) "alarms" 0 au.Protocol.audit_alarms;
          Alcotest.(check (list string)) "drifting" [] au.Protocol.audit_drifting;
          if not (Float.is_finite au.Protocol.audit_mean_err) then
            Alcotest.fail "mean error not finite";
          if au.Protocol.audit_max_abs_err <= 0. then
            Alcotest.fail "max |err| should be positive on this workload";
          (* Per-estimator calibration series in the exposition. *)
          let m = unwrap (Serve.Client.metrics c) in
          let exposition = m.Protocol.prometheus in
          let has = contains ~what:"exposition" exposition in
          has {|contention_serve_audit_total{estimator="second-order"} 1|};
          has {|contention_serve_audit_error_bucket{estimator="second-order",le="+Inf"}|};
          has {|contention_serve_audit_error_sum{estimator="second-order"}|};
          has {|contention_serve_audit_error_count{estimator="second-order"}|};
          has {|contention_serve_audit_drift{estimator="second-order"} 0|};
          has "contention_serve_audit_dropped_total 0";
          has "contention_serve_audit_failed_total 0";
          has "contention_serve_audit_submitted_total 1";
          (* The alarm counter appears on the first alarm: its absence is
             how a scrape reads zero alarms. *)
          if Fixtures.contains ~affix:"contention_serve_audit_alarms" exposition
          then
            Alcotest.failf "alarm counter exposed without an alarm:\n%s"
              exposition;
          (* The audit journal record joins the originating request's trace:
             same trace id as the estimate line and as the replay span. *)
          let records = read_json_lines journal_path in
          let audits =
            List.filter (fun r -> str_member "cmd" r = Some "audit") records
          in
          Alcotest.(check int) "one audit journal record" 1 (List.length audits);
          let audit_rec = List.hd audits in
          let hex = Span.id_to_hex ctx.Span.trace_id in
          Alcotest.(check (option string))
            "audit record carries the originating trace" (Some hex)
            (str_member "trace" audit_rec);
          Alcotest.(check (option string))
            "outcome" (Some "ok") (str_member "outcome" audit_rec);
          Alcotest.(check (option string))
            "estimator" (Some "second-order")
            (str_member "estimator" audit_rec);
          Alcotest.(check (option string))
            "workload digest" (Some digest)
            (str_member "workload" audit_rec);
          (* Both record kinds share one prefix, in one key order. *)
          let keys = function
            | Json.Obj fields -> List.map fst fields
            | _ -> []
          in
          Alcotest.(check (list string))
            "audit record keys"
            [ "ts"; "trace"; "cmd"; "workload"; "shard"; "estimator";
              "outcome"; "rows"; "mean_err"; "max_abs_err" ]
            (keys audit_rec);
          (match
             List.find_opt
               (fun r -> str_member "cmd" r = Some "estimate")
               records
           with
          | None -> Alcotest.fail "estimate request not journalled"
          | Some est_rec ->
              Alcotest.(check (option string))
                "estimate and audit share the trace" (Some hex)
                (str_member "trace" est_rec);
              Alcotest.(check (list string))
                "estimate record keys"
                [ "ts"; "trace"; "cmd"; "workload"; "shard"; "queue_depth";
                  "outcome"; "cached"; "latency_us" ]
                (keys est_rec));
          (* And the replay span itself hangs off that trace. *)
          let spans = Span.collect () in
          let replay =
            List.filter (fun (s : Span.t) -> s.Span.name = "audit.replay") spans
          in
          Alcotest.(check int) "one replay span" 1 (List.length replay);
          Alcotest.(check int64)
            "replay span carries the originating trace id" ctx.Span.trace_id
            (List.hd replay).Span.trace_id;
          (* The join helper ties them together — and every audit record
             resolves to at least one span. *)
          (match join_by_trace audits spans with
          | [ (_, matching) ] ->
              if matching = [] then Alcotest.fail "audit record joins no spans"
          | _ -> Alcotest.fail "join lost the audit record")))

let test_queue_full_drops () =
  let w = Exp.Workload.make ~seed:7 ~num_apps:2 ~procs:2 () in
  let registry = Obs.Metric.create_registry () in
  let a =
    Audit.create
      ~config:
        {
          Audit.default_config with
          Audit.sample_every = 1;
          queue_capacity = 1;
          horizon = 2_000.;
        }
      ~registry ()
  in
  Fun.protect
    ~finally:(fun () -> Audit.stop a)
    (fun () ->
      let mask = Contention.Usecase.full ~napps:2 in
      let task =
        {
          Audit.digest = "d";
          workload = w;
          mask;
          estimator = "second-order";
          rows =
            List.map
              (fun name ->
                {
                  Protocol.app = name;
                  period = 100.;
                  isolation_period = 100.;
                  throughput = 0.01;
                })
              (Array.to_list (Exp.Workload.names w));
          ctx = None;
        }
      in
      (* Saturate: with capacity 1 some of a burst must be dropped, and
         every submission must be accounted submitted or dropped. *)
      let accepted = ref 0 in
      for _ = 1 to 50 do
        if Audit.submit a task then incr accepted
      done;
      Audit.drain a;
      let s = Audit.stats a in
      Alcotest.(check int) "accepted = submitted" !accepted
        s.Protocol.audit_submitted;
      Alcotest.(check int) "the rest dropped" (50 - !accepted)
        s.Protocol.audit_dropped;
      if s.Protocol.audit_dropped = 0 then
        Alcotest.fail "a 50-deep burst into a 1-deep queue must drop";
      Alcotest.(check int) "drained everything accepted"
        s.Protocol.audit_submitted s.Protocol.audit_completed;
      (* Submissions after stop are refused, not queued. *)
      Audit.stop a;
      if Audit.submit a task then Alcotest.fail "submit accepted after stop")

(* --- stats wire compatibility ------------------------------------------ *)

let test_stats_wire_compat () =
  (* A stats reply from a pre-audit server (no "audit" member) still
     parses, with auditing reported off. *)
  let config =
    { Serve.Server.default_config with port = Some 0; jobs = Some 1 }
  in
  let server = Serve.Server.start ~config () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () ->
      let reply = Serve.Server.handle_line server {|{"cmd": "stats"}|} in
      let payload =
        unwrap (Protocol.unwrap_reply (unwrap (Json.of_string reply)))
      in
      let stripped =
        match payload with
        | Json.Obj fields ->
            Json.Obj (List.filter (fun (k, _) -> k <> "audit") fields)
        | json -> json
      in
      let old = unwrap (Protocol.stats_reply_of_json stripped) in
      Alcotest.(check int) "older server: auditing off" 0
        old.Protocol.audit.Protocol.audit_sample;
      (* And the auditing-off server reports sample 0 itself. *)
      let s = unwrap (Protocol.stats_reply_of_json payload) in
      Alcotest.(check int) "audit off by default" 0
        s.Protocol.audit.Protocol.audit_sample)

(* --- empty journal join ------------------------------------------------ *)

let test_empty_journal_join () =
  let path = Filename.temp_file "empty_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let j = Serve.Journal.create ~sample_every:1 path in
      Serve.Journal.close j;
      Alcotest.(check int) "nothing written" 0 (Serve.Journal.written j);
      let records = read_json_lines path in
      Alcotest.(check int) "no records" 0 (List.length records);
      (* Joining an empty journal against live spans is empty, not an
         error — the trace-merge side of the join must not dangle. *)
      let spans =
        [
          {
            Span.name = "serve.estimate";
            args = [];
            ts_ns = 0L;
            dur_ns = 1L;
            domain = 0;
            trace_id = 42L;
            span_id = 1L;
            parent_id = 0L;
          };
        ]
      in
      Alcotest.(check int) "empty join" 0
        (List.length (join_by_trace records spans)))

let suite =
  [
    Alcotest.test_case "drift: steady stream" `Quick test_drift_steady;
    Alcotest.test_case "drift: upward shift" `Quick test_drift_shift_up;
    Alcotest.test_case "drift: downward shift" `Quick test_drift_shift_down;
    Alcotest.test_case "drift: min samples" `Quick test_drift_min_samples;
    Alcotest.test_case "rejects bad horizons" `Quick test_rejects_bad_horizon;
    Alcotest.test_case "head sampler" `Quick test_sampler;
    Alcotest.test_case "end to end" `Slow test_audit_end_to_end;
    Alcotest.test_case "queue full drops" `Slow test_queue_full_drops;
    Alcotest.test_case "stats wire compatibility" `Quick test_stats_wire_compat;
    Alcotest.test_case "empty journal join" `Quick test_empty_journal_join;
  ]
