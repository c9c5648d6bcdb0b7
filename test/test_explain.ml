(* Provenance records (Contention.Explain): bit-identical agreement with
   both estimator entry points (estimate and estimate_prepared), sandwich
   bracket orientation per truncation parity, the composability fold
   lineage, a total JSON codec (declared in the serve layer's protocol)
   that refuses non-integral integer members, tamper detection by [verify]
   (reproduced numbers and the use-case's own facts), estimator-name
   round-trips, and a golden rendering. *)

module A = Contention.Analysis
module E = Contention.Explain

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits what a b =
  if not (same_float a b) then Alcotest.failf "%s: %h <> %h" what a b

let workload () = Exp.Workload.make ~seed:7 ~num_apps:3 ~procs:2 ()

let apps_of w =
  Exp.Workload.analysis_apps w
    (Contention.Usecase.full ~napps:(Exp.Workload.num_apps w))

(* Each app with its cache, as [E.compute] takes them. *)
let with_caches apps = List.map (fun a -> (a, A.prepare a)) apps

(* --- bit-identity with the estimator paths --------------------------- *)

let check_against_rows name (ex : E.t) (results : A.estimate list) =
  Alcotest.(check int)
    (name ^ ": app count") (List.length results) (List.length ex.E.apps);
  List.iter2
    (fun (x : E.app) (r : A.estimate) ->
      check_bits (name ^ ": period") r.A.period x.E.x_period;
      check_bits (name ^ ": throughput") (A.throughput r) x.E.x_throughput;
      check_bits (name ^ ": isolation") r.A.for_app.A.isolation_period
        x.E.x_isolation;
      check_bits (name ^ ": factor")
        (r.A.period /. r.A.for_app.A.isolation_period)
        x.E.x_factor;
      Alcotest.(check int)
        (name ^ ": actor count")
        (Array.length r.A.waiting_times)
        (List.length x.E.x_actors);
      List.iteri
        (fun i (a : E.actor) ->
          Alcotest.(check int) (name ^ ": actor index") i a.E.a_index;
          check_bits (name ^ ": wait") r.A.waiting_times.(i) a.E.a_wait;
          check_bits (name ^ ": response") r.A.response_times.(i) a.E.a_response)
        x.E.x_actors)
    ex.E.apps results

let test_agrees_with_estimate () =
  let apps = apps_of (workload ()) in
  let prepared = with_caches apps in
  List.iter
    (fun est ->
      let name = A.estimator_name est in
      let ex = E.compute est prepared in
      Alcotest.(check string) "estimator name" name ex.E.estimator;
      (* Unprepared entry point. *)
      check_against_rows (name ^ "/reference") ex (A.estimate est apps);
      (* Kernel path: what the serve daemon actually runs. *)
      check_against_rows (name ^ "/kernel") ex (A.estimate_prepared est prepared))
    A.all_paper_estimators

let test_agrees_with_exact () =
  (* Exact enumerates contender subsets; keep the use-case small. *)
  let apps = apps_of (Exp.Workload.make ~seed:5 ~num_apps:2 ~procs:2 ()) in
  let ex = E.compute A.Exact (with_caches apps) in
  check_against_rows "exact" ex (A.estimate A.Exact apps)

let test_statespace_engine () =
  (* Periods have one engine: the record names it, and verify refuses a
     record naming another. *)
  let apps = apps_of (Exp.Workload.make ~seed:5 ~num_apps:2 ~procs:2 ()) in
  let ex = E.compute (A.Order 2) (with_caches apps) in
  Alcotest.(check string) "engine recorded" "mcm" ex.E.engine;
  match E.verify { ex with E.engine = "statespace" } apps with
  | Ok () -> Alcotest.fail "verify accepted a statespace record"
  | Error _ -> ()

(* --- sandwich bounds -------------------------------------------------- *)

let test_sandwich () =
  let apps = apps_of (workload ()) in
  List.iter
    (fun m ->
      let ex = E.compute (A.Order m) (with_caches apps) in
      List.iter
        (fun (x : E.app) ->
          List.iter
            (fun (a : E.actor) ->
              match a.E.a_sandwich with
              | None -> Alcotest.fail "Order-m actor lacks a sandwich"
              | Some s ->
                  Alcotest.(check int) "recorded order" m s.E.s_order;
                  (* Even truncations over-estimate: the served wait is the
                     upper end of the bracket; odd ones the lower. *)
                  if m mod 2 = 0 then
                    check_bits "upper bracket is the served wait" a.E.a_wait
                      s.E.s_upper
                  else
                    check_bits "lower bracket is the served wait" a.E.a_wait
                      s.E.s_lower;
                  if s.E.s_lower > s.E.s_upper then
                    Alcotest.failf "inverted bracket: [%g, %g]" s.E.s_lower
                      s.E.s_upper)
            x.E.x_actors)
        ex.E.apps)
    [ 2; 3; 4 ];
  (* Non-truncation estimators carry no sandwich. *)
  List.iter
    (fun est ->
      let ex = E.compute est (with_caches apps) in
      List.iter
        (fun (x : E.app) ->
          List.iter
            (fun (a : E.actor) ->
              if a.E.a_sandwich <> None then
                Alcotest.failf "%s actor carries a sandwich" ex.E.estimator)
            x.E.x_actors)
        ex.E.apps)
    [ A.Worst_case; A.Composability ]

(* --- composability fold lineage -------------------------------------- *)

let test_fold_lineage () =
  let apps = apps_of (workload ()) in
  let ex = E.compute A.Composability (with_caches apps) in
  List.iter
    (fun (x : E.app) ->
      List.iter
        (fun (a : E.actor) ->
          Alcotest.(check int) "one fold step per contender"
            (List.length a.E.a_contenders)
            (List.length a.E.a_fold);
          match List.rev a.E.a_fold with
          | last :: _ ->
              check_bits "final aggregate W is the served wait" a.E.a_wait
                last.E.f_w
          | [] -> check_bits "no contenders, no wait" 0. a.E.a_wait)
        x.E.x_actors)
    ex.E.apps;
  (* Other estimators fold nothing. *)
  let ex = E.compute (A.Order 2) (with_caches apps) in
  List.iter
    (fun (x : E.app) ->
      List.iter
        (fun (a : E.actor) ->
          if a.E.a_fold <> [] then Alcotest.fail "order-2 actor has a fold")
        x.E.x_actors)
    ex.E.apps

(* --- JSON codec -------------------------------------------------------- *)

let test_codec_roundtrip () =
  let apps = apps_of (workload ()) in
  List.iter
    (fun est ->
      let ex = E.compute est (with_caches apps) in
      match
        Serve.Protocol.explain_reply_of_json
          (Serve.Protocol.explain_reply_to_json ex)
      with
      | Error msg -> Alcotest.failf "decode failed: %s" msg
      | Ok ex' ->
          if compare ex ex' <> 0 then
            Alcotest.failf "%s: of_json (to_json t) <> t" ex.E.estimator)
    (A.Exact :: A.all_paper_estimators)

let test_codec_total () =
  List.iter
    (fun doc ->
      match Serve.Protocol.explain_reply_of_json doc with
      | Error (_ : string) -> ()
      | Ok _ -> Alcotest.fail "malformed document accepted")
    Serve.Json.
      [
        Null;
        Num 1.;
        Str "explain";
        Arr [];
        Obj [];
        Obj [ ("estimator", Num 3.) ];
        Obj
          [
            ("estimator", Str "second-order");
            ("engine", Str "mcm");
            ("usecase", Arr []);
            ("apps", Str "nope");
          ];
      ]

let test_wire_bridge () =
  (* Through the serve layer: core json -> wire json -> string -> back. *)
  let apps = apps_of (workload ()) in
  let ex = E.compute (A.Order 2) (with_caches apps) in
  let line = Serve.Json.to_string (Serve.Protocol.explain_reply_to_json ex) in
  match
    Result.bind (Serve.Json.of_string line) Serve.Protocol.explain_reply_of_json
  with
  | Error msg -> Alcotest.failf "wire round-trip: %s" msg
  | Ok ex' ->
      if compare ex ex' <> 0 then
        Alcotest.fail "wire round-trip is not bit-exact"

(* The first member [name] in a depth-first walk, set to [v]. *)
let replace_first name v json =
  let replaced = ref false in
  let rec go = function
    | Serve.Json.Obj kvs ->
        Serve.Json.Obj
          (List.map
             (fun (k, x) ->
               if (not !replaced) && k = name then begin
                 replaced := true;
                 (k, v)
               end
               else (k, go x))
             kvs)
    | Serve.Json.Arr xs -> Serve.Json.Arr (List.map go xs)
    | x -> x
  in
  let json = go json in
  if not !replaced then Alcotest.failf "no %S member" name;
  json

let test_codec_integers () =
  (* Integer members hold integers: a fractional, negative-fraction or
     out-of-range number is refused, not truncated to a valid index. *)
  let apps = apps_of (workload ()) in
  let margin = Contention.Margin.of_bounds ~confidence:0.9 ~period:2. ~lo:1. ~hi:3. in
  let ex =
    E.with_margins (E.compute (A.Order 2) (with_caches apps)) [ ("A", margin) ]
  in
  let doc = Serve.Protocol.explain_reply_to_json ex in
  (match Serve.Protocol.explain_reply_of_json doc with
  | Ok ex' when compare ex ex' = 0 -> ()
  | Ok _ -> Alcotest.fail "record changed in flight"
  | Error msg -> Alcotest.failf "valid record refused: %s" msg);
  List.iter
    (fun (name, x) ->
      match
        Serve.Protocol.explain_reply_of_json
          (replace_first name (Serve.Json.Num x) doc)
      with
      | Error (_ : string) -> ()
      | Ok tampered -> (
          match E.verify tampered apps with
          | Ok () -> Alcotest.failf "%s = %g decoded and verified" name x
          | Error _ -> Alcotest.failf "%s = %g decoded" name x))
    [
      ("actor", 0.5);
      ("actor", -0.9);
      ("proc", 1e300);
      ("order", 2.5);
      ("samples", 0.25);
    ]

(* --- verify ----------------------------------------------------------- *)

let test_verify () =
  let apps = apps_of (workload ()) in
  List.iter
    (fun est ->
      let ex = E.compute est (with_caches apps) in
      match E.verify ex apps with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "verify (%s): %s" (A.estimator_name est) msg)
    (A.Exact :: A.all_paper_estimators)

let test_verify_detects_tampering () =
  let apps = apps_of (workload ()) in
  let ex = E.compute (A.Order 2) (with_caches apps) in
  let tamper_wait (ex : E.t) =
    {
      ex with
      E.apps =
        List.map
          (fun (x : E.app) ->
            {
              x with
              E.x_actors =
                List.map
                  (fun (a : E.actor) ->
                    { a with E.a_wait = a.E.a_wait +. 1e-9 })
                  x.E.x_actors;
            })
          ex.E.apps;
    }
  and tamper_period (ex : E.t) =
    {
      ex with
      E.apps =
        List.map
          (fun (x : E.app) -> { x with E.x_period = x.E.x_period *. (1. +. 1e-12) })
          ex.E.apps;
    }
  in
  List.iter
    (fun tamper ->
      match E.verify (tamper ex) apps with
      | Ok () -> Alcotest.fail "tampered record verified"
      | Error (_ : string) -> ())
    [ tamper_wait; tamper_period ]

(* Facts the use-case states outright: a record contradicting one of them
   for the first actor of the first application is refused. *)
let refuses_first_actor what tamper =
  let apps = apps_of (workload ()) in
  let ex = E.compute (A.Order 2) (with_caches apps) in
  let tampered =
    match ex.E.apps with
    | x :: rest -> (
        match x.E.x_actors with
        | a :: actors -> { ex with E.apps = { x with E.x_actors = tamper a :: actors } :: rest }
        | [] -> Alcotest.fail "no actors")
    | [] -> Alcotest.fail "no applications"
  in
  match E.verify tampered apps with
  | Ok () -> Alcotest.failf "a record with %s verified" what
  | Error (_ : string) -> ()

let test_verify_processor () =
  refuses_first_actor "processor 7 on two processors" (fun a -> { a with E.a_proc = 7 })

let test_verify_actor_name () =
  refuses_first_actor "a renamed actor" (fun a -> { a with E.a_name = a.E.a_name ^ "x" })

let test_verify_own_load () =
  refuses_first_actor "p = 0.5" (fun a -> { a with E.a_p = 0.5 })

(* --- estimator names --------------------------------------------------- *)

let test_estimator_names () =
  List.iter
    (fun est ->
      match A.estimator_of_name (A.estimator_name est) with
      | Ok est' when est' = est -> ()
      | Ok _ -> Alcotest.failf "%s parsed to a different estimator"
                  (A.estimator_name est)
      | Error msg -> Alcotest.failf "%s rejected: %s" (A.estimator_name est) msg)
    [ A.Worst_case; A.Order 2; A.Order 4; A.Order 7; A.Composability; A.Exact ];
  List.iter
    (fun bad ->
      match A.estimator_of_name bad with
      | Error (_ : string) -> ()
      | Ok _ -> Alcotest.failf "%S accepted" bad)
    [ ""; "o2"; "order-1"; "order-0"; "order-x"; "second order"; "EXACT" ]

(* --- golden rendering -------------------------------------------------- *)

let test_render_golden () =
  let apps = apps_of (Exp.Workload.make ~seed:3 ~num_apps:2 ~procs:2 ()) in
  let ex = E.compute (A.Order 2) (with_caches apps) in
  let expected =
    String.concat "\n"
          [
            "use-case {A,B}  estimator second-order  engine mcm";
            "";
            "application A: isolation 538, period 1150.87, contention factor 2.13917, throughput 0.000868907";
            "| Actor | Proc | Exec |          P |   Mu |    Wait | Response | Err bound |                          Contenders |";
            "|-------|------|------|------------|------|---------|----------|-----------|-------------------------------------|";
            "| 0 a0  |    0 |   14 |  0.0780669 |    7 | 27.6157 |  41.6157 |   1.81447 | B/8+B/6+B/4+B/2+B/0+A/8+A/6+A/4+A/2 |";
            "| 1 a1  |    1 |   25 |  0.0464684 | 12.5 | 65.1489 |  90.1489 |   7.28941 | B/9+B/7+B/5+B/3+B/1+A/9+A/7+A/5+A/3 |";
            "| 2 a2  |    0 |   87 |    0.16171 | 43.5 | 17.9855 |  104.985 |   1.00183 | B/8+B/6+B/4+B/2+B/0+A/8+A/6+A/4+A/0 |";
            "| 3 a3  |    1 |    5 | 0.00929368 |  2.5 | 66.8638 |  71.8638 |   8.01451 | B/9+B/7+B/5+B/3+B/1+A/9+A/7+A/5+A/1 |";
            "| 4 a4  |    0 |   49 |  0.0910781 | 24.5 | 25.0787 |  74.0787 |    1.5811 | B/8+B/6+B/4+B/2+B/0+A/8+A/6+A/2+A/0 |";
            "| 5 a5  |    1 |   19 |   0.070632 |  9.5 | 64.5045 |  83.5045 |   6.91961 | B/9+B/7+B/5+B/3+B/1+A/9+A/7+A/3+A/1 |";
            "| 6 a6  |    0 |   36 |  0.0669145 |   18 | 26.7638 |  62.7638 |    1.7911 | B/8+B/6+B/4+B/2+B/0+A/8+A/4+A/2+A/0 |";
            "| 7 a7  |    1 |   74 |   0.275093 |   37 |  46.625 |  120.625 |   3.62318 | B/9+B/7+B/5+B/3+B/1+A/9+A/5+A/3+A/1 |";
            "| 8 a8  |    0 |   21 |     0.1171 | 10.5 | 26.2833 |  47.2833 |   1.57952 | B/8+B/6+B/4+B/2+B/0+A/6+A/4+A/2+A/0 |";
            "| 9 a9  |    1 |   39 |   0.144981 | 19.5 | 59.5973 |  98.5973 |   5.57579 | B/9+B/7+B/5+B/3+B/1+A/7+A/5+A/3+A/1 |";
            "";
            "application B: isolation 508, period 1008.83, contention factor 1.98589, throughput 0.000991247";
            "| Actor | Proc | Exec |         P |   Mu |    Wait | Response | Err bound |                          Contenders |";
            "|-------|------|------|-----------|------|---------|----------|-----------|-------------------------------------|";
            "| 0 b0  |    0 |    9 | 0.0177165 |  4.5 | 28.8936 |  37.8936 |   2.18766 | B/8+B/6+B/4+B/2+A/8+A/6+A/4+A/2+A/0 |";
            "| 1 b1  |    1 |   62 |  0.122047 |   31 | 58.4921 |  120.492 |   5.64492 | B/9+B/7+B/5+B/3+A/9+A/7+A/5+A/3+A/1 |";
            "| 2 b2  |    0 |   18 | 0.0354331 |    9 | 28.3606 |  46.3606 |   2.05592 | B/8+B/6+B/4+B/0+A/8+A/6+A/4+A/2+A/0 |";
            "| 3 b3  |    1 |   48 |  0.188976 |   24 | 56.1842 |  104.184 |   4.88113 | B/9+B/7+B/5+B/1+A/9+A/7+A/5+A/3+A/1 |";
            "| 4 b4  |    0 |   21 | 0.0826772 | 10.5 | 27.1085 |  48.1085 |   1.75849 | B/8+B/6+B/2+B/0+A/8+A/6+A/4+A/2+A/0 |";
            "| 5 b5  |    1 |   43 |  0.169291 | 21.5 | 57.8959 |  100.896 |   5.19615 | B/9+B/7+B/3+B/1+A/9+A/7+A/5+A/3+A/1 |";
            "| 6 b6  |    0 |   32 |  0.188976 |   16 | 23.2537 |  55.2537 |    1.2174 | B/8+B/4+B/2+B/0+A/8+A/6+A/4+A/2+A/0 |";
            "| 7 b7  |    1 |   89 |  0.350394 | 44.5 | 38.4077 |  127.408 |   2.86377 | B/9+B/5+B/3+B/1+A/9+A/7+A/5+A/3+A/1 |";
            "| 8 b8  |    0 |   35 |  0.206693 | 17.5 | 22.3474 |  57.3474 |   1.14023 | B/6+B/4+B/2+B/0+A/8+A/6+A/4+A/2+A/0 |";
            "| 9 b9  |    1 |   14 | 0.0551181 |    7 | 65.2953 |  79.2953 |   7.20955 | B/7+B/5+B/3+B/1+A/9+A/7+A/5+A/3+A/1 |";
            "";
          ]
  in
  Alcotest.(check string) "rendered explanation" expected (E.render ex)

let suite =
  [
    Alcotest.test_case "agrees with estimate (both paths)" `Quick
      test_agrees_with_estimate;
    Alcotest.test_case "agrees with exact" `Quick test_agrees_with_exact;
    Alcotest.test_case "statespace engine" `Quick test_statespace_engine;
    Alcotest.test_case "sandwich brackets" `Quick test_sandwich;
    Alcotest.test_case "composability fold lineage" `Quick test_fold_lineage;
    Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec is total" `Quick test_codec_total;
    Alcotest.test_case "codec refuses non-integers" `Quick test_codec_integers;
    Alcotest.test_case "wire bridge round-trip" `Quick test_wire_bridge;
    Alcotest.test_case "verify reproduces" `Quick test_verify;
    Alcotest.test_case "verify detects tampering" `Quick
      test_verify_detects_tampering;
    Alcotest.test_case "verify checks processors" `Quick test_verify_processor;
    Alcotest.test_case "verify checks actor names" `Quick test_verify_actor_name;
    Alcotest.test_case "verify checks own loads" `Quick test_verify_own_load;
    Alcotest.test_case "estimator names" `Quick test_estimator_names;
    Alcotest.test_case "render golden" `Quick test_render_golden;
  ]
