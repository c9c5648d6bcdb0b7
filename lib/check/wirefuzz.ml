module Rng = Sdfgen.Rng

type result = {
  requests : int;
  violations : Metamorphic.violation list;
}

let passed r = r.violations = []

let violation property fmt =
  Printf.ksprintf
    (fun detail -> { Metamorphic.property; detail })
    fmt

let printable = "abcdefghijklmnopqrstuvwxyz0123456789{}[]\",:.+-eE\\/ "

let random_bytes rng len =
  (* '\n' excluded: over a socket it would merely split the frame, and
     handle_line is specified per line. *)
  String.init len (fun _ ->
      let c = Char.chr (Rng.int rng 256) in
      if c = '\n' then 'x' else c)

let random_printable rng len =
  String.init len (fun _ -> printable.[Rng.int rng (String.length printable)])

let deep_array depth =
  String.concat "" (List.init depth (fun _ -> "["))
  ^ "1"
  ^ String.concat "" (List.init depth (fun _ -> "]"))

let deep_object depth =
  String.concat "" (List.init depth (fun _ -> {|{"a":|}))
  ^ "1"
  ^ String.concat "" (List.init depth (fun _ -> "}"))

(* A recognisable trace id planted in fuzzed trace envelopes.  Replies must
   never contain it: the trace context is observability metadata, and a
   server that echoes a caller-supplied id back over the wire is leaking
   one tenant's correlation ids to whoever shares the reply path. *)
let foreign_trace_id = "feedfacefeedface"

let scalars =
  [|
    "1e999"; "-1e999"; "-0.0"; "99999999999999999999999999";
    "0.00000000000000000001"; "null"; "true"; "false"; "[]"; "{}"; "42";
    {|"cmd"|}; {|{"cmd": 42}|}; {|{"cmd": null}|}; {|{"cmd": ""}|};
    {|{"cmd": "estimate"}|}; {|{"cmd": "upload"}|};
    {|{"cmd": "admit", "session": 3}|};
    {|{"cmd": "estimate", "digest": "nope", "estimator": "bogus"}|};
    {|{"cmd": "release", "app": []}|}; {|[{"cmd": "ping"}]|};
    (* Malformed admit margin fields: out-of-range, non-numeric and
       non-finite confidence, unknown/ill-typed margin method — each must be
       an error reply, never a crash or a margin-less silent admit. *)
    {|{"cmd": "admit", "workload": "0123456789abcdef", "app": "A", "min_throughput": 0.1, "confidence": 1.5}|};
    {|{"cmd": "admit", "workload": "0123456789abcdef", "app": "A", "min_throughput": 0.1, "confidence": 0}|};
    {|{"cmd": "admit", "workload": "0123456789abcdef", "app": "A", "min_throughput": 0.1, "confidence": -0.95}|};
    {|{"cmd": "admit", "workload": "0123456789abcdef", "app": "A", "min_throughput": 0.1, "confidence": "high"}|};
    {|{"cmd": "admit", "workload": "0123456789abcdef", "app": "A", "min_throughput": 0.1, "confidence": 1e999}|};
    {|{"cmd": "admit", "workload": "0123456789abcdef", "app": "A", "min_throughput": 0.1, "confidence": 0.95, "margin_method": "bogus"}|};
    {|{"cmd": "admit", "workload": "0123456789abcdef", "app": "A", "min_throughput": 0.1, "margin_method": 42}|};
    {|{"cmd": "admit", "workload": "0123456789abcdef", "app": "A", "min_throughput": "fast", "confidence": 0.95}|};
    (* Stale/duplicate session ids: releases of never-admitted apps and
       empty or repeated identifiers. *)
    {|{"cmd": "release", "session": "never-created", "app": "ghost"}|};
    {|{"cmd": "release", "session": "", "app": ""}|};
    {|{"cmd": "release", "session": "s", "app": "A", "app": "B"}|};
    {|{"cmd": "cache-put"}|};
    {|{"cmd": "cache-put", "workload": "0123456789abcdef", "mask": "x"}|};
    {|{"cmd": "cache-put", "workload": "0123456789abcdef", "mask": -3, "estimator": "o2", "results": []}|};
    {|{"cmd": "cache-put", "workload": "0123456789abcdef", "mask": 3, "estimator": "bogus", "results": [{"app": "A"}]}|};
    {|{"shed": {"queue_depth": 1}}|}; {|{"shed": {}}|};
    {|{"cmd": "ping", "extra": {"deep": [1, [2, [3]]]}}|};
    (* Trace envelopes: a valid one, one with unknown fields (forward
       compatibility with newer clients), and malformed shapes that the
       lenient parser must swallow without rejecting the request. *)
    {|{"cmd": "ping", "trace": {"id": "feedfacefeedface", "parent": "0000000000000001", "sampled": true}}|};
    {|{"cmd": "ping", "trace": {"id": "feedfacefeedface", "sampled": false, "baggage": {"tenant": "x"}, "flags": 7}}|};
    {|{"cmd": "estimate", "digest": "0123456789abcdef", "trace": {"id": 42}}|};
    {|{"cmd": "ping", "trace": {"id": "feedfacefeedface", "parent": "zzzz"}}|};
    {|{"cmd": "ping", "trace": {"id": "not-hex-at-all"}}|};
    {|{"cmd": "ping", "trace": {"id": "feedfacefeedface", "sampled": "yes"}}|};
    {|{"cmd": "ping", "trace": "feedfacefeedface"}|};
    {|{"cmd": "ping", "trace": null}|}; {|{"cmd": "ping", "trace": []}|};
    {|{"cmd": "ping", "trace": {}}|};
    {|{"cmd": "ping", "trace": {"id": "0000000000000000"}}|};
    "\xff\xfe\x00garbage"; "{"; "}"; {|{"cmd": "ping"|}; {|"unterminated|};
  |]

(* Valid requests to mutate or truncate.  Shutdown is deliberately absent:
   a fuzz line must never be able to request an orderly shutdown, or the
   liveness probe would report a false crash. *)
let template rng =
  let open Serve.Protocol in
  let reqs =
    [|
      Ping;
      Stats;
      Metrics;
      Upload { payload = "graph \"A\"\nactor a0 10\nactor a1 5\n" };
      Estimate
        {
          digest = "0123456789abcdef";
          usecase = (if Rng.bool rng then None else Some [ "A"; "B" ]);
          estimator = Contention.Analysis.Exact;
        };
      Admit
        {
          session = "s";
          digest = "0123456789abcdef";
          app = "A";
          min_throughput = 0.25;
          confidence = (if Rng.bool rng then None else Some 0.95);
          margin_method =
            (match Rng.int rng 3 with
            | 0 -> None
            | 1 -> Some Contention.Margin.Z_score
            | _ -> Some Contention.Margin.Quantile);
        };
      Release { session = "s"; app = "A" };
      Cache_put
        {
          digest = "0123456789abcdef";
          mask = 3;
          estimator = "second-order";
          rows =
            [
              {
                app = "A";
                period = 12.;
                isolation_period = 10.;
                throughput = 0.1;
              };
            ];
        };
    |]
  in
  let trace =
    (* Half the templates carry a trace envelope with the foreign id, so
       byte-flipping and truncation also hammer the trace parser. *)
    if Rng.bool rng then None
    else
      Some
        {
          Obs.Span.trace_id = 0xfeedfacefeedfaceL;
          parent_span = Int64.of_int (Rng.int rng 1000);
          sampled = Rng.bool rng;
        }
  in
  Serve.Json.to_string
    (request_to_json ?trace reqs.(Rng.int rng (Array.length reqs)))

let mutate rng s =
  let b = Bytes.of_string s in
  let flips = 1 + Rng.int rng 4 in
  for _ = 1 to flips do
    let i = Rng.int rng (Bytes.length b) in
    let c = Char.chr (Rng.int rng 256) in
    Bytes.set b i (if c = '\n' then 'x' else c)
  done;
  Bytes.to_string b

let fuzz_line rng =
  match Rng.int rng 9 with
  | 0 -> random_bytes rng (Rng.int rng 300)
  | 1 -> random_printable rng (Rng.int rng 200)
  | 2 -> deep_array (8 + Rng.int rng 1992)
  | 3 -> deep_object (8 + Rng.int rng 1992)
  | 4 -> Rng.pick rng scalars
  | 5 -> mutate rng (template rng)
  | 6 ->
      let s = template rng in
      String.sub s 0 (Rng.int rng (String.length s))
  | 7 -> {|{"cmd": "upload", "payload": "|} ^ random_printable rng 50 ^ {|"}|}
  | _ -> "\"" ^ String.make (Rng.int rng 5000) 'a' ^ "\\u0000\""

let ping_line = {|{"cmd": "ping"}|}

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let check_reply acc ~input reply =
  let acc =
    if contains_substring ~needle:foreign_trace_id reply then
      violation "wire-trace-echo" "input %S reply %S echoes the caller trace id"
        input reply
      :: acc
    else acc
  in
  match Serve.Json.of_string reply with
  | Error msg ->
      violation "wire-unparseable-reply" "input %S got non-JSON reply %S: %s"
        input reply msg
      :: acc
  | Ok json -> (
      match Serve.Protocol.classify_reply json with
      | Serve.Protocol.Reply_ok _ | Serve.Protocol.Reply_error _ -> acc
      | Serve.Protocol.Reply_shed _ ->
          (* Shedding happens at accept time, before a worker ever parses a
             line; a shed verdict out of handle_line means the backpressure
             path leaked into request handling. *)
          violation "wire-shed-inline" "input %S got an inline shed verdict"
            input
          :: acc)

let fuzz_lines ?(seeds = 200) server =
  let rng = Rng.create 0x3117 in
  let acc = ref [] in
  let requests = ref 0 in
  for i = 0 to seeds - 1 do
    let line = fuzz_line rng in
    incr requests;
    (match Serve.Server.handle_line server line with
    | reply -> acc := check_reply !acc ~input:line reply
    | exception e ->
        acc :=
          violation "wire-crash" "handle_line raised %s on input %S (step %d)"
            (Printexc.to_string e) line i
          :: !acc);
    (* The next well-formed request must be unaffected by whatever the
       garbage did. *)
    if i mod 25 = 24 then begin
      incr requests;
      match Serve.Server.handle_line server ping_line with
      | reply -> (
          match Serve.Json.of_string reply with
          | Ok json when Serve.Protocol.unwrap_reply json |> Result.is_ok ->
              ()
          | _ ->
              acc :=
                violation "wire-state-poisoned"
                  "ping after fuzz step %d got %S" i reply
                :: !acc)
      | exception e ->
          acc :=
            violation "wire-crash" "ping after fuzz step %d raised %s" i
              (Printexc.to_string e)
            :: !acc
    end
  done;
  { requests = !requests; violations = List.rev !acc }

(* One frame through handle_line: [Some (reply, payload)] (the payload ok or
   error), or [None] after recording a crash or an unparseable reply. *)
let exchange server acc requests ~what line =
  incr requests;
  match Serve.Server.handle_line server line with
  | exception e ->
      acc :=
        violation "wire-crash" "%s raised %s on %S" what (Printexc.to_string e)
          line
        :: !acc;
      None
  | reply -> (
      match Serve.Json.of_string reply with
      | Error msg ->
          acc :=
            violation "wire-unparseable-reply" "%s: non-JSON reply %S: %s" what
              reply msg
            :: !acc;
          None
      | Ok json -> Some (reply, Serve.Protocol.unwrap_reply json))

(* Live-state id fuzzing: duplicate admits and stale releases against a
   real session.  Unlike the stateless lines above, these frames are valid
   JSON aimed at admission-state edges — the same app admitted twice, a
   release replayed after it succeeded, an unknown session — and each step
   pins the expected envelope (ok vs error) as well as liveness. *)
let fuzz_session_ids server =
  let acc = ref [] in
  let requests = ref 0 in
  let step ~what ~expect_ok line =
    match exchange server acc requests ~what line with
    | None -> None
    | Some (reply, payload) ->
        if Result.is_ok payload <> expect_ok then
          acc :=
            violation "wire-session-ids" "%s: expected %s reply, got %S" what
              (if expect_ok then "an ok" else "an error")
              reply
            :: !acc;
        Result.to_option payload
  in
  let upload_line =
    Serve.Json.to_string
      (Serve.Protocol.request_to_json
         (Serve.Protocol.Upload
            {
              payload =
                Exp.Workload.to_string
                  (Exp.Workload.make ~seed:7 ~num_apps:1 ~procs:2 ());
            }))
  in
  let target =
    match step ~what:"upload" ~expect_ok:true upload_line with
    | Some payload -> (
        match Serve.Protocol.upload_reply_of_json payload with
        | Ok { Serve.Protocol.digest; apps = app :: _; _ } -> Some (digest, app)
        | Ok _ | Error _ -> None)
    | None -> None
  in
  (match target with
  | None ->
      acc :=
        violation "wire-session-ids" "upload reply carried no digest/apps"
        :: !acc
  | Some (digest, app) ->
      let admit extra =
        Printf.sprintf
          {|{"cmd": "admit", "session": "ids", "workload": "%s", "app": "%s", "min_throughput": 1e-9%s}|}
          digest app extra
      in
      let release session app =
        Printf.sprintf {|{"cmd": "release", "session": %S, "app": %S}|} session
          app
      in
      ignore (step ~what:"first admit" ~expect_ok:true (admit ""));
      ignore (step ~what:"duplicate admit" ~expect_ok:false (admit ""));
      ignore
        (step ~what:"release of unknown app" ~expect_ok:false
           (release "ids" "ghost"));
      ignore
        (step ~what:"release in unknown session" ~expect_ok:false
           (release "nowhere" "A"));
      ignore (step ~what:"release" ~expect_ok:true (release "ids" "A"));
      ignore (step ~what:"stale release" ~expect_ok:false (release "ids" "A"));
      (* The duplicate and stale frames must not have wedged the session:
         a margin-carrying re-admit still works. *)
      (match
         step ~what:"re-admit with margin" ~expect_ok:true
           (admit {|, "confidence": 0.9, "margin_method": "quantile"|})
       with
      | Some payload
        when Serve.Json.member "margin" payload = None ->
          acc :=
            violation "wire-session-ids"
              "re-admit with confidence 0.9 served no margin"
            :: !acc
      | _ -> ());
      ignore
        (step ~what:"cleanup release" ~expect_ok:true (release "ids" "A")));
  { requests = !requests; violations = List.rev !acc }

(* A workload payload with the execution time of its [i]-th actor line
   (counted across the whole payload) mapped by [f i]. *)
let map_exec_times f payload =
  let i = ref (-1) in
  String.split_on_char '\n' payload
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | [ "actor"; name; time ] ->
             incr i;
             Printf.sprintf "actor %s %.17g" name (f !i (float_of_string time))
         | _ -> line)
  |> String.concat "\n"

(* Edge-value workloads: one actor's execution time set to nan, inf or 0,
   and a valid workload with every time scaled by 10^6 (contended periods
   far past the ~1e3 where an absolute 1e-12 relaxation tolerance drops
   below float resolution).  Each
   upload must be refused with an error reply, or every paper estimator's
   estimate of it must be an ok reply with finite periods. *)
let fuzz_edge_values server =
  let acc = ref [] and requests = ref 0 in
  let send what request =
    exchange server acc requests ~what
      (Serve.Json.to_string (Serve.Protocol.request_to_json request))
    |> Option.map snd
  in
  let flag what fmt =
    Printf.ksprintf
      (fun d -> acc := violation "wire-edge-values" "%s: %s" what d :: !acc)
      fmt
  in
  let estimate what digest estimator =
    let what = what ^ " " ^ Contention.Analysis.estimator_name estimator in
    match send what (Serve.Protocol.Estimate { digest; usecase = None; estimator }) with
    | None -> ()
    | Some (Error msg) -> flag what "upload accepted, estimate refused: %s" msg
    | Some (Ok reply) -> (
        match Serve.Protocol.estimate_reply_of_json reply with
        | Error msg -> flag what "bad estimate reply: %s" msg
        | Ok r ->
            List.iter
              (fun (row : Serve.Protocol.estimate_row) ->
                if not (Float.is_finite row.period) then
                  flag what "app %s period %g" row.app row.period)
              r.rows)
  in
  let base =
    Exp.Workload.to_string (Exp.Workload.make ~seed:7 ~num_apps:2 ~procs:2 ())
  in
  List.iter
    (fun (what, f) ->
      let payload = map_exec_times f base in
      match send (what ^ " upload") (Serve.Protocol.Upload { payload }) with
      | None | Some (Error _) -> ()
      | Some (Ok reply) -> (
          match Serve.Protocol.upload_reply_of_json reply with
          | Error msg -> flag what "bad upload reply: %s" msg
          | Ok up ->
              List.iter (estimate what up.Serve.Protocol.digest)
                Contention.Analysis.all_paper_estimators))
    [
      ("tau = nan", fun i t -> if i = 0 then nan else t);
      ("tau = inf", fun i t -> if i = 0 then infinity else t);
      ("tau = 0", fun i t -> if i = 0 then 0. else t);
      ("tau x 1e6", fun _ t -> t *. 1e6);
    ];
  { requests = !requests; violations = List.rev !acc }

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          (* The server closed first (e.g. over-length frame): that is an
             acceptable reaction to garbage, not a violation. *)
          ()
  in
  go 0

let fuzz_sockets ?(seeds = 32) ~host ~port () =
  let rng = Rng.create 0x50c7 in
  let acc = ref [] in
  let requests = ref 0 in
  for i = 0 to seeds - 1 do
    incr requests;
    match
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
          match i mod 4 with
          | 0 ->
              (* Junk lines, properly framed. *)
              write_all fd (fuzz_line rng ^ "\n" ^ fuzz_line rng ^ "\n")
          | 1 ->
              (* Truncated frame: bytes but no newline, then hard close. *)
              write_all fd (random_bytes rng (1 + Rng.int rng 100))
          | 2 ->
              (* Over-length line: exceeds the server's frame limit. *)
              write_all fd (String.make 100_000 'a' ^ "\n")
          | _ ->
              (* Immediate disconnect. *)
              ())
    with
    | () -> ()
    | exception e ->
        acc :=
          violation "wire-socket" "connection %d: %s" i (Printexc.to_string e)
          :: !acc
  done;
  (* Liveness: a clean client session must still work. *)
  incr requests;
  (match Serve.Client.connect ~host ~port () with
  | Error msg ->
      acc := violation "wire-dead" "connect after fuzzing: %s" msg :: !acc
  | Ok client ->
      Fun.protect
        ~finally:(fun () -> Serve.Client.close client)
        (fun () ->
          match Serve.Client.ping client with
          | Ok () -> ()
          | Error msg ->
              acc :=
                violation "wire-dead" "ping after fuzzing: %s" msg :: !acc));
  { requests = !requests; violations = List.rev !acc }

let run ?(seeds = 200) () =
  let config =
    {
      Serve.Server.default_config with
      port = Some 0;
      jobs = Some 2;
      cache_capacity = 8;
      max_line = 4096;
    }
  in
  match Serve.Server.start ~config () with
  | exception e ->
      {
        requests = 0;
        violations =
          [ violation "wire-crash" "server start: %s" (Printexc.to_string e) ];
      }
  | server ->
      Fun.protect
        ~finally:(fun () -> Serve.Server.stop server)
        (fun () ->
          let in_process = fuzz_lines ~seeds server in
          let sessions = fuzz_session_ids server in
          let edges = fuzz_edge_values server in
          let socket =
            match Serve.Server.tcp_port server with
            | None ->
                {
                  requests = 0;
                  violations =
                    [ violation "wire-socket" "server has no TCP port" ];
                }
            | Some port ->
                fuzz_sockets ~seeds:(max 8 (seeds / 8)) ~host:"127.0.0.1"
                  ~port ()
          in
          {
            requests =
              in_process.requests + sessions.requests + edges.requests
              + socket.requests;
            violations =
              in_process.violations @ sessions.violations @ edges.violations
              @ socket.violations;
          })
