open Contention

let app_a () = Analysis.app (Fixtures.graph_a ()) ~mapping:[| 0; 1; 2 |]
let app_b () = Analysis.app (Fixtures.graph_b ()) ~mapping:[| 0; 1; 2 |]

let test_admit_best_effort () =
  let ctl = Admission.create ~procs:3 () in
  Alcotest.(check int) "procs" 3 (Admission.procs ctl);
  (match Admission.try_admit ctl (app_a ()) Admission.best_effort with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "A rejected");
  (match Admission.try_admit ctl (app_b ()) Admission.best_effort with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "B rejected");
  Alcotest.(check int) "two admitted" 2 (List.length (Admission.admitted ctl))

let test_alone_estimate_is_isolation () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  Fixtures.check_float ~eps:1e-6 "alone = isolation" 300. (Admission.estimated_period ctl "A")

let test_shared_estimate_matches_analysis () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  ignore (Admission.try_admit ctl (app_b ()) Admission.best_effort);
  (* Composability with a single partner per node is exact: 1075/3. *)
  Fixtures.check_float ~eps:1e-6 "Per(A) shared" (1075. /. 3.)
    (Admission.estimated_period ctl "A");
  Fixtures.check_float ~eps:1e-6 "Per(B) shared" (1075. /. 3.)
    (Admission.estimated_period ctl "B");
  Fixtures.check_float ~eps:1e-6 "throughput" (3. /. 1075.)
    (Admission.estimated_throughput ctl "A")

let test_candidate_rejection () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  (* B alone would meet 1/359 but not 1/300 under sharing. *)
  match Admission.try_admit ctl (app_b ()) { min_throughput = 1. /. 310. } with
  | Admission.Rejected_candidate { estimated; required } ->
      Alcotest.(check bool) "estimate below requirement" true (estimated < required);
      Alcotest.(check int) "not admitted" 1 (List.length (Admission.admitted ctl))
  | Admission.Admitted _ -> Alcotest.fail "B admitted despite requirement"
  | Admission.Rejected_victim _ -> Alcotest.fail "wrong rejection kind"

let test_victim_rejection () =
  let ctl = Admission.create ~procs:3 () in
  (* A requires nearly its isolation throughput; admitting B would hurt A. *)
  (match Admission.try_admit ctl (app_a ()) { min_throughput = 1. /. 310. } with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "A alone rejected");
  match Admission.try_admit ctl (app_b ()) Admission.best_effort with
  | Admission.Rejected_victim { app; _ } ->
      Alcotest.(check string) "victim is A" "A" app;
      Alcotest.(check int) "B not admitted" 1 (List.length (Admission.admitted ctl))
  | Admission.Admitted _ -> Alcotest.fail "B admitted despite hurting A"
  | Admission.Rejected_candidate _ -> Alcotest.fail "wrong rejection kind"

let test_withdraw_restores () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  ignore (Admission.try_admit ctl (app_b ()) Admission.best_effort);
  Admission.withdraw ctl "B";
  Alcotest.(check int) "one left" 1 (List.length (Admission.admitted ctl));
  (* With B gone, A's estimate returns to isolation (inverse ops exact). *)
  Fixtures.check_float ~eps:1e-6 "A restored" 300. (Admission.estimated_period ctl "A");
  (* And B can come back. *)
  match Admission.try_admit ctl (app_b ()) Admission.best_effort with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "re-admission failed"

let test_duplicate_and_missing () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  (match Admission.try_admit ctl (app_a ()) Admission.best_effort with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate admitted");
  (match Admission.withdraw ctl "Z" with
  | exception Not_found -> ()
  | () -> Alcotest.fail "withdrew unknown app");
  (match Admission.estimated_period ctl "Z" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "estimated unknown app");
  match Admission.create ~procs:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 procs accepted"

let test_mapping_out_of_range () =
  let ctl = Admission.create ~procs:2 () in
  match Admission.try_admit ctl (app_a ()) Admission.best_effort with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mapping beyond procs accepted"

(* Admit/withdraw in random order leaves estimates equal to a fresh
   controller with the same final population. *)
let prop_withdraw_path_independent =
  Fixtures.qcheck_case ~count:30 "withdraw path independence"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let procs = 2 in
      let mk name g =
        let g' =
          Sdf.Graph.create ~name
            ~actors:(Array.map (fun (a : Sdf.Graph.actor) -> (a.name, a.exec_time)) g.Sdf.Graph.actors)
            ~channels:(Array.map (fun (c : Sdf.Graph.channel) ->
                (c.src, c.dst, c.produce, c.consume, c.tokens)) g.Sdf.Graph.channels)
        in
        Analysis.app g' ~mapping:(Mapping.modulo ~procs g')
      in
      let a = mk "P" g1 and b = mk "Q" g2 in
      (* Controller 1: admit a, admit b, withdraw b. *)
      let c1 = Admission.create ~procs () in
      ignore (Admission.try_admit c1 a Admission.best_effort);
      ignore (Admission.try_admit c1 b Admission.best_effort);
      Admission.withdraw c1 "Q";
      (* Controller 2: admit a only. *)
      let c2 = Admission.create ~procs () in
      ignore (Admission.try_admit c2 a Admission.best_effort);
      Fixtures.float_eq ~eps:1e-6
        (Admission.estimated_period c1 "P")
        (Admission.estimated_period c2 "P"))

let suite =
  [
    Alcotest.test_case "admit best effort" `Quick test_admit_best_effort;
    Alcotest.test_case "alone = isolation" `Quick test_alone_estimate_is_isolation;
    Alcotest.test_case "shared matches analysis" `Quick test_shared_estimate_matches_analysis;
    Alcotest.test_case "candidate rejection" `Quick test_candidate_rejection;
    Alcotest.test_case "victim rejection" `Quick test_victim_rejection;
    Alcotest.test_case "withdraw restores" `Quick test_withdraw_restores;
    Alcotest.test_case "duplicate/missing" `Quick test_duplicate_and_missing;
    Alcotest.test_case "mapping range" `Quick test_mapping_out_of_range;
    prop_withdraw_path_independent;
  ]

(* Stress: random admit/withdraw sequences keep the controller consistent —
   every admitted app's estimate stays at or above its isolation period and
   the population matches the performed operations. *)
let test_random_admit_withdraw_stress () =
  let rng = Sdfgen.Rng.create 2024 in
  let params =
    { Sdfgen.Generator.default_params with actors_min = 3; actors_max = 5;
      exec_min = 2; exec_max = 25 }
  in
  let procs = 4 in
  let ctl = Admission.create ~procs () in
  let admitted = ref [] in
  for step = 1 to 40 do
    let coin = Sdfgen.Rng.int rng 3 in
    if coin < 2 || !admitted = [] then begin
      let name = Printf.sprintf "S%d" step in
      let g =
        Sdfgen.Generator.generate ~params (Sdfgen.Rng.split rng) ~name
      in
      let app = Analysis.app g ~mapping:(Mapping.modulo ~procs g) in
      match Admission.try_admit ctl app Admission.best_effort with
      | Admission.Admitted _ -> admitted := name :: !admitted
      | Admission.Rejected_candidate _ | Admission.Rejected_victim _ ->
          Alcotest.fail "best effort rejected"
    end
    else begin
      let victim = List.nth !admitted (Sdfgen.Rng.int rng (List.length !admitted)) in
      Admission.withdraw ctl victim;
      admitted := List.filter (fun n -> n <> victim) !admitted
    end;
    Alcotest.(check int) "population consistent" (List.length !admitted)
      (List.length (Admission.admitted ctl));
    List.iter
      (fun (name, (app : Analysis.app), _) ->
        let est = Admission.estimated_period ctl name in
        if est +. 1e-6 < app.isolation_period then
          Alcotest.failf "step %d: %s estimated %.3f below isolation %.3f" step name
            est app.isolation_period)
      (Admission.admitted ctl)
  done

let suite = suite @ [ Alcotest.test_case "random admit/withdraw stress" `Slow
                        test_random_admit_withdraw_stress ]

(* Section 6 feedback: observing measured periods recalibrates the controller. *)
let test_observe_measured_periods () =
  let ctl = Admission.create ~procs:3 () in
  ignore (Admission.try_admit ctl (app_a ()) Admission.best_effort);
  ignore (Admission.try_admit ctl (app_b ()) Admission.best_effort);
  let before = Admission.estimated_period ctl "B" in
  (* The simulator showed A actually achieves 300 under sharing; but suppose
     the system observes A running at 600: A blocks its nodes half as often,
     so B's estimate must drop. *)
  Admission.observe ctl "A" ~measured_period:600.;
  let after = Admission.estimated_period ctl "B" in
  Alcotest.(check bool) "B estimate drops" true (after < before);
  (* P(a_i) halves from 1/3 to 1/6: B's waits halve exactly (single partner
     per node => composability is exact).  twait(b_i) = mu(a_i)/6 and b0
     fires twice per iteration: Per(B) = 300 + (2*50 + 25 + 50)/6. *)
  Fixtures.check_float ~eps:1e-6 "calibrated period" (300. +. (175. /. 6.)) after;
  (* Validation: a refused observation changes nothing, so the later
     withdraw still takes the incremental path. *)
  let counters = Admission.counters ctl in
  Fixtures.check_refuses_bad_periods "observe" (fun measured_period ->
      Admission.observe ctl "A" ~measured_period);
  (match Admission.observe ctl "Z" ~measured_period:10. with
  | exception Not_found -> ()
  | () -> Alcotest.fail "unknown app observed");
  Alcotest.(check bool) "counters unchanged" true (Admission.counters ctl = counters);
  Alcotest.(check bool) "estimate unchanged" true
    (Float.equal (Admission.estimated_period ctl "B") after);
  Admission.withdraw ctl "A";
  Alcotest.(check int) "withdraw stays incremental" 0
    (Admission.counters ctl).full_rebuilds

let suite = suite @ [ Alcotest.test_case "observe measured periods" `Quick
                        test_observe_measured_periods ]

(* --- bit-for-bit pin of the controller under churn ---------------------- *)

(* A seeded churn on one controller: about 200 residents on 4 processors,
   one join in ten guaranteed a quarter to a half of its throughput alone
   (so candidate and victim rejections occur), mostly non-LIFO leaves,
   observes, and z-score and 20-draw quantile margins.  One resident in five
   declares execution-time distributions, so margins see both variance
   paths.  The transcript holds every verdict with [%h] of its figures and,
   every 100 ops, the aggregates, their refold, the drift and the admitted
   order, then the counters.  The digests below were recorded from the
   controller that kept its residents in an association list; a change to
   any verdict, margin, aggregate bit or order names its first segment. *)

let pin_procs = 4
let pin_target = 200
let pin_ops = 1_200
let pin_segment = 100

let pin_digests =
  [|
    "368ee3c25eed501ccfaead1a9b05b962";
    "2fa6ab9f4fd48f39b08353c58f1f782b";
    "abc88cf867f9703aff79f8529d191f99";
    "8f21186bb37a818e8fb5166325875649";
    "b7271daa82b983c95859370713844632";
    "71e9530dd951eeea9184df4333a301bb";
    "1497e8d0d60b434c3250fed1bd65e48b";
    "1e3a9e06bba715c0b8875229e67484ad";
    "7822e95719284aa9fcfd404e75bdc655";
    "4f7e310eac397aa80e9c9ac63ef86b46";
    "27dab72db759fc9f30e84ee3aa8f38cc";
    "a92a9f43447574e0b1416f1e8b2246e4";
    "4a9e3fa979cfa1840d56581ed2f7abea";
  |]

let pin_app rng i =
  let name = Printf.sprintf "P%d" i in
  let app =
    Check.Fuzz.churn_app rng ~procs:pin_procs
      ~period_slack:(0.25 *. float_of_int pin_target) ~name
  in
  if i mod 5 <> 0 then app
  else
    let g = app.Analysis.graph in
    let distributions =
      Array.mapi
        (fun k (a : Sdf.Graph.actor) ->
          let tau = a.exec_time in
          match (i + k) mod 3 with
          | 0 -> Dist.Uniform { lo = 0.5 *. tau; hi = 1.5 *. tau }
          | 1 -> Dist.Exponential { mean = tau }
          | _ -> Dist.Discrete [ (0.5 *. tau, 1.); (1.5 *. tau, 1.) ])
        g.Sdf.Graph.actors
    in
    Analysis.app g ~period:app.Analysis.isolation_period ~distributions
      ~mapping:app.Analysis.mapping

let pin_transcript () =
  let rng = Sdfgen.Rng.create 20260 in
  let ctl = Admission.create ~procs:pin_procs () in
  let segments = ref [] and buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf (fmt ^^ "\n") in
  let margin_line (m : Margin.t) =
    line "  margin %s %h %h %h %h %h %d"
      (Margin.method_to_string m.method_) m.period m.lo m.hi m.mean m.std
      m.samples
  in
  (* Newest first, as the controller lists them. *)
  let resident = ref [] in
  let next = ref 0 in
  (* The victim of the last rejection leaves next, as a manager would evict
     it; otherwise one tight resident would reject every later join. *)
  let blocker = ref None in
  let pick () = List.nth !resident (Sdfgen.Rng.int rng (List.length !resident)) in
  let join op =
    incr next;
    let app = pin_app rng !next in
    let name = app.Analysis.graph.Sdf.Graph.name in
    let req =
      if !next mod 10 = 0 then
        let alone = Sdf.Hsdf.period app.Analysis.graph in
        { Admission.min_throughput =
            1. /. (alone *. (2. +. Sdfgen.Rng.float rng 2.)) }
      else Admission.best_effort
    in
    let margin =
      match !next mod 6 with
      | 1 -> Some { Admission.default_margin_spec with confidence = 0.9 }
      | 4 ->
          Some
            { Admission.default_margin_spec with
              method_ = Margin.Quantile; samples = 20;
              seed = Int64.of_int !next }
      | _ -> None
    in
    match Admission.try_admit ?margin ctl app req with
    | Admission.Admitted { margin = m } ->
        resident := name :: !resident;
        line "%d join %s %h admitted" op name req.min_throughput;
        Option.iter margin_line m
    | Admission.Rejected_candidate { estimated; required } ->
        line "%d join %s candidate %h %h" op name estimated required
    | Admission.Rejected_victim { app = victim; estimated; required } ->
        blocker := Some victim;
        line "%d join %s victim %s %h %h" op name victim estimated required
  in
  let leave op =
    let name =
      match !blocker with
      | Some v when List.mem v !resident -> v
      | _ -> if Sdfgen.Rng.int rng 8 = 0 then List.hd !resident else pick ()
    in
    blocker := None;
    (if Sdfgen.Rng.int rng 4 = 0 then
       match Admission.release ctl name with
       | Ok () -> line "%d release %s" op name
       | Error msg -> Alcotest.failf "op %d: %s" op msg
     else begin
       Admission.withdraw ctl name;
       line "%d leave %s" op name
     end);
    resident := List.filter (fun n -> n <> name) !resident
  in
  let observe op =
    let name = pick () in
    let before = Admission.estimated_period ctl name in
    let measured_period = before *. (1. +. Sdfgen.Rng.float rng 1.) in
    Admission.observe ctl name ~measured_period;
    line "%d observe %s %h %h" op name before
      (Admission.estimated_period ctl name);
    if op mod 3 = 0 then
      margin_line
        (Admission.margin_for ctl
           { Admission.default_margin_spec with confidence = 0.8 }
           name)
  in
  let snapshot op =
    line "%d snapshot" op;
    for proc = 0 to pin_procs - 1 do
      let a = Admission.aggregate ctl ~proc in
      let r = Admission.refolded_aggregate ctl ~proc in
      line "  proc %d %h %h refold %h %h drift %h" proc a.Compose.p a.Compose.w
        r.Compose.p r.Compose.w (Admission.aggregate_drift ctl ~proc)
    done;
    line "  admitted %s"
      (String.concat ","
         (List.map
            (fun (n, _, (r : Admission.requirement)) ->
              Printf.sprintf "%s:%h" n r.min_throughput)
            (Admission.admitted ctl)))
  in
  for op = 1 to pin_ops do
    let population = List.length !resident in
    if population = 0 || Sdfgen.Rng.int rng (2 * pin_target) >= population then
      join op
    else if Sdfgen.Rng.int rng 6 = 0 then observe op
    else leave op;
    if op mod pin_segment = 0 then begin
      snapshot op;
      segments := Buffer.contents buf :: !segments;
      Buffer.clear buf
    end
  done;
  let c = Admission.counters ctl in
  line "counters %d %d %d %d %d %d %d %d" c.joins c.leaves c.observes
    c.incremental_ops c.full_rebuilds c.drift_refolds c.group_rebuilds
    c.group_drift_refolds;
  (match Admission.release ctl "absent" with
  | Ok () -> Alcotest.fail "released an absent application"
  | Error msg -> line "%s" msg);
  Array.of_list (List.rev (Buffer.contents buf :: !segments))

let test_pin_churn () =
  let segments = pin_transcript () in
  let digests = Array.map (fun s -> Digest.to_hex (Digest.string s)) segments in
  if digests <> pin_digests then begin
    let first =
      let rec go i =
        if i >= Array.length digests || i >= Array.length pin_digests
           || digests.(i) <> pin_digests.(i)
        then i
        else go (i + 1)
      in
      go 0
    in
    Alcotest.failf
      "segment %d differs from the pinned transcript (digests now: %s); its \
       text:\n%s"
      first
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%S") digests)))
      (if first < Array.length segments then segments.(first) else "")
  end

let suite =
  suite
  @ [ Alcotest.test_case "churn transcript pinned bit for bit" `Quick
        test_pin_churn ]

(* --- margin specs are refused before any work --------------------------- *)

(* An invalid spec raises whichever verdict the join would have reached, and
   changes nothing: three controllers, one per verdict path. *)
let test_invalid_spec_refused () =
  let bad =
    [
      { Admission.default_margin_spec with confidence = 1.5 };
      { Admission.default_margin_spec with confidence = 0. };
      { Admission.default_margin_spec with confidence = Float.nan };
      { Admission.default_margin_spec with samples = 0 };
      { Admission.default_margin_spec with method_ = Margin.Quantile; samples = 0 };
    ]
  in
  let paths =
    [
      ("admitted", Admission.best_effort, Admission.best_effort);
      ("candidate", Admission.best_effort, { Admission.min_throughput = 1. /. 310. });
      ("victim", { Admission.min_throughput = 1. /. 310. }, Admission.best_effort);
    ]
  in
  List.iter
    (fun (path, req_a, req_b) ->
      let ctl = Admission.create ~procs:3 () in
      ignore (Admission.try_admit ctl (app_a ()) req_a);
      let counters = Admission.counters ctl in
      List.iter
        (fun spec ->
          (match Admission.try_admit ~margin:spec ctl (app_b ()) req_b with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s path: invalid spec accepted" path);
          (match Admission.margin_for ctl spec "A" with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s path: margin_for accepted an invalid spec" path);
          Alcotest.(check (list string))
            (path ^ ": admitted unchanged") [ "A" ]
            (List.map (fun (n, _, _) -> n) (Admission.admitted ctl));
          Alcotest.(check bool) (path ^ ": counters unchanged") true
            (Admission.counters ctl = counters))
        bad)
    paths

(* --- withdraw does not scale with the population ------------------------ *)

(* Withdrawing the oldest resident allocates the same number of words among
   50 residents as among 2,000: no scan or copy of the others.  The bound
   keeps the drift refold, which folds every resident, out of the count. *)
let test_withdraw_population_independent () =
  let procs = 4 in
  let rng = Sdfgen.Rng.create 31 in
  let apps =
    Array.init 2_000 (fun i ->
        Check.Fuzz.churn_app rng ~procs ~period_slack:500.
          ~name:(Printf.sprintf "W%d" i))
  in
  let words n =
    let ctl = Admission.create ~refold_bound:1e9 ~procs () in
    for i = 0 to n - 1 do
      match Admission.try_admit ctl apps.(i) Admission.best_effort with
      | Admission.Admitted _ -> ()
      | _ -> Alcotest.failf "W%d rejected" i
    done;
    let w0 = Gc.minor_words () in
    Admission.withdraw ctl "W0";
    let w1 = Gc.minor_words () in
    let c = Admission.counters ctl in
    Alcotest.(check int) "no drift refold" 0 c.drift_refolds;
    Alcotest.(check int) "no full rebuild" 0 c.full_rebuilds;
    w1 -. w0
  in
  let small = words 50 and large = words 2_000 in
  if small <> large then
    Alcotest.failf "withdraw allocated %.0f words among 50 residents, %.0f among 2000"
      small large

let suite =
  suite
  @ [
      Alcotest.test_case "invalid margin spec refused" `Quick
        test_invalid_spec_refused;
      Alcotest.test_case "withdraw independent of population" `Quick
        test_withdraw_population_independent;
    ]

(* --- the variance log against a roster walk ---------------------------- *)

(* About 50 residents through 2,000 leave/join pairs, with observes and
   releases.  Actors share processors at random, so a log that kept a
   resident's actors in another order would add them in another order.
   After every op, each processor's logged variance sum, which the z-score
   margin reads, must equal a newest-first roster walk's bit for bit,
   across the log's compactions (about 40 here). *)
let test_variance_log () =
  let procs = 3 and residents = 50 and spares = 30 in
  let rng = Sdfgen.Rng.create 4711 in
  let apps =
    Array.init (residents + spares) (fun i ->
        let a = pin_app rng i in
        Analysis.app a.Analysis.graph ~period:a.Analysis.isolation_period
          ?distributions:a.Analysis.distributions
          ~mapping:(Array.map (fun _ -> Sdfgen.Rng.int rng procs) a.Analysis.mapping))
  in
  let name i = apps.(i).Analysis.graph.Sdf.Graph.name in
  let ctl = Admission.create ~procs () in
  let positive = ref 0 in
  let check op =
    for proc = 0 to procs - 1 do
      let logged = Admission.variance ctl ~proc in
      let walked = Admission.refolded_variance ctl ~proc in
      if Int64.bits_of_float logged <> Int64.bits_of_float walked then
        Alcotest.failf "op %d, proc %d: logged %h, roster walk %h" op proc logged walked;
      if logged > 0. then incr positive
    done
  in
  let join op i =
    (match Admission.try_admit ctl apps.(i) Admission.best_effort with
    | Admission.Admitted _ -> ()
    | _ -> Alcotest.failf "op %d: %s rejected" op (name i));
    check op
  in
  for i = 0 to residents - 1 do
    join i i
  done;
  let inside = Array.init residents Fun.id in
  let outside = Array.init spares (fun k -> residents + k) in
  for pair = 1 to 2_000 do
    let op = residents + (3 * pair) in
    let slot = Sdfgen.Rng.int rng residents in
    let leaving = name inside.(slot) in
    (if Sdfgen.Rng.int rng 4 = 0 then
       match Admission.release ctl leaving with
       | Ok () -> ()
       | Error msg -> Alcotest.failf "op %d: %s" op msg
     else Admission.withdraw ctl leaving);
    check op;
    let k = Sdfgen.Rng.int rng spares in
    let joining = outside.(k) in
    outside.(k) <- inside.(slot);
    inside.(slot) <- joining;
    join (op + 1) joining;
    if Sdfgen.Rng.int rng 3 = 0 then begin
      let observed = name inside.(Sdfgen.Rng.int rng residents) in
      Admission.observe ctl observed
        ~measured_period:
          (Admission.estimated_period ctl observed *. (1. +. Sdfgen.Rng.float rng 1.));
      check (op + 2)
    end
  done;
  if !positive = 0 then Alcotest.fail "every variance sum was zero"

let suite =
  suite
  @ [ Alcotest.test_case "variance log = roster walk" `Quick test_variance_log ]
