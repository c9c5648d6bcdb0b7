(* Unit tests for the differential-validation subsystem (lib/check): spec
   serialization, deterministic materialization, shrinking, the oracle's
   ability to catch an injected estimator bug, the corpus format, the fuzz
   driver, and the wire fuzzer.  The corpus replay at the end is the
   regression guard: every shrunk counterexample ever stored must stay
   clean on the current code. *)

module Case = Check.Case
module Rng = Sdfgen.Rng

let sample_specs : Case.spec list =
  [
    {
      seed = 42;
      procs = 2;
      usecase = 3;
      apps = [| { actors = 3; exec_scale = 1. }; { actors = 2; exec_scale = 0.5 } |];
    };
    { seed = 0; procs = 1; usecase = 1; apps = [| { actors = 2; exec_scale = 0.015625 } |] };
    {
      seed = 123456789;
      procs = 3;
      usecase = 5;
      apps =
        [|
          { actors = 5; exec_scale = 2. };
          { actors = 4; exec_scale = 1. };
          { actors = 2; exec_scale = 0.25 };
        |];
    };
  ]

let spec_eq (a : Case.spec) (b : Case.spec) =
  a.seed = b.seed && a.procs = b.procs && a.usecase = b.usecase
  && Array.length a.apps = Array.length b.apps
  && Array.for_all2
       (fun (x : Case.app_spec) (y : Case.app_spec) ->
         x.actors = y.actors && x.exec_scale = y.exec_scale)
       a.apps b.apps

let test_spec_line_roundtrip () =
  List.iter
    (fun spec ->
      let line = Case.spec_to_line spec in
      match Case.spec_of_line line with
      | Error e -> Alcotest.failf "parse %S: %s" line e
      | Ok spec' ->
          if not (spec_eq spec spec') then
            Alcotest.failf "round-trip changed %S -> %S" line
              (Case.spec_to_line spec'))
    sample_specs

let test_spec_line_total () =
  List.iter
    (fun line ->
      match Case.spec_of_line line with
      | Error _ -> ()
      | Ok spec ->
          Alcotest.failf "garbage %S parsed as %S" line (Case.spec_to_line spec))
    [
      "";
      "spec";
      "spec seed=x procs=1 usecase=1 apps=2:1";
      "spec seed=1 procs=1 usecase=1";
      "spec seed=1 procs=1 usecase=1 apps=";
      "spec seed=1 procs=1 usecase=1 apps=2:1,";
      "spec seed=1 procs=1 usecase=1 apps=banana";
      "digraph \"A\" {";
    ]

let test_random_specs_materialize () =
  for seed = 0 to 99 do
    let spec = Case.random seed in
    let napps = Array.length spec.apps in
    if napps < 1 || napps > 3 then Alcotest.failf "seed %d: %d apps" seed napps;
    if spec.procs < 1 || spec.procs > 3 then
      Alcotest.failf "seed %d: %d procs" seed spec.procs;
    if spec.usecase < 1 || spec.usecase >= 1 lsl napps then
      Alcotest.failf "seed %d: usecase %d out of range" seed spec.usecase;
    Array.iter
      (fun (a : Case.app_spec) ->
        if a.actors < 2 || a.actors > 5 then
          Alcotest.failf "seed %d: %d actors" seed a.actors)
      spec.apps;
    match Case.materialize spec with
    | Error e -> Alcotest.failf "seed %d does not materialize: %s" seed e
    | Ok t ->
        if Case.active_actors t < 2 then
          Alcotest.failf "seed %d: no active actors" seed
  done

let test_materialize_deterministic () =
  List.iter
    (fun seed ->
      let spec = Case.random seed in
      match (Case.materialize spec, Case.materialize spec) with
      | Ok a, Ok b ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d describe" seed)
            (Case.describe a) (Case.describe b)
      | _ -> Alcotest.failf "seed %d failed to materialize" seed)
    [ 0; 7; 31; 99 ]

let test_materialize_rejects_invalid () =
  let base = Case.random 5 in
  let invalid =
    [
      { base with Case.usecase = 0 };
      { base with Case.usecase = 1 lsl Array.length base.apps };
      { base with Case.procs = 0 };
      { base with Case.apps = [||] };
      { base with Case.apps = [| { Case.actors = 1; exec_scale = 1. } |] };
      { base with Case.apps = [| { Case.actors = 3; exec_scale = 0. } |] };
    ]
  in
  List.iter
    (fun spec ->
      match Case.materialize spec with
      | Error _ -> ()
      | Ok _ ->
          Alcotest.failf "invalid spec accepted: %s" (Case.spec_to_line spec))
    invalid

let test_shrink_synthetic () =
  (* A predicate that only needs two applications: the minimizer must strip
     everything else — third app gone, actor counts at the floor of 2,
     execution scales halved down to 1/64. *)
  let start : Case.spec =
    {
      seed = 11;
      procs = 3;
      usecase = 7;
      apps =
        [|
          { actors = 5; exec_scale = 4. };
          { actors = 4; exec_scale = 1. };
          { actors = 3; exec_scale = 1. };
        |];
    }
  in
  let still_fails (s : Case.spec) = Array.length s.apps >= 2 in
  let shrunk = Check.Shrink.minimize ~still_fails start in
  Alcotest.(check bool) "still fails" true (still_fails shrunk);
  Alcotest.(check int) "two apps left" 2 (Array.length shrunk.apps);
  Array.iter
    (fun (a : Case.app_spec) ->
      Alcotest.(check int) "actor floor" 2 a.actors;
      Fixtures.check_float "scale floor" (1. /. 64.) a.exec_scale)
    shrunk.apps;
  (* Deterministic: same input, same minimum. *)
  let shrunk' = Check.Shrink.minimize ~still_fails start in
  Alcotest.(check bool) "deterministic" true (spec_eq shrunk shrunk')

let test_shrink_respects_budget () =
  let calls = ref 0 in
  let still_fails _ =
    incr calls;
    true
  in
  ignore (Check.Shrink.minimize ~max_attempts:5 ~still_fails (Case.random 3));
  Alcotest.(check bool) "at most 5 calls" true (!calls <= 5)

let loads =
  [
    Contention.Prob.make ~p:0.3 ~mu:5. ~tau:10.;
    Contention.Prob.make ~p:0.5 ~mu:7. ~tau:14.;
    Contention.Prob.make ~p:0.2 ~mu:3. ~tau:9.;
  ]

let test_oracle_kernel_clean () =
  match Check.Oracle.check_kernel (Rng.create 1) loads with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "clean loads flagged: %s: %s" v.Check.Oracle.property
        v.Check.Oracle.detail

(* Eq. 4 with the (-1)^(j+1) factor inverted — the classic transcription
   bug.  The oracle must catch it through the brute-force cross-check
   without any library code being patched. *)
let buggy_exact loads =
  match loads with
  | [] -> 0.
  | loads ->
      let ps = Array.of_list (List.map (fun (l : Contention.Prob.t) -> l.p) loads) in
      let es = Contention.Sympoly.all ps in
      let n = Array.length ps in
      let acc = ref 0. in
      List.iteri
        (fun i (l : Contention.Prob.t) ->
          let others = Contention.Sympoly.remove ~xs:ps ~skip:i es in
          let series = ref 1. in
          for j = 1 to n - 1 do
            let coeff = (if j mod 2 = 1 then -1. else 1.) /. float_of_int (j + 1) in
            series := !series +. (coeff *. others.(j))
          done;
          acc := !acc +. (Contention.Prob.waiting_product l *. !series))
        loads;
      !acc

let test_oracle_catches_injected_bug () =
  let violations =
    Check.Oracle.check_kernel ~exact:buggy_exact (Rng.create 1) loads
  in
  Alcotest.(check bool) "bug detected" true (violations <> []);
  let properties =
    List.sort_uniq compare
      (List.map (fun v -> v.Check.Oracle.property) violations)
  in
  Alcotest.(check bool)
    (Printf.sprintf "brute force disagrees (got: %s)"
       (String.concat ", " properties))
    true
    (List.mem "exact-vs-brute-force" properties)

let test_corpus_roundtrip () =
  List.iter
    (fun spec ->
      let entry =
        {
          Check.Corpus.property = "order-sandwich";
          detail = "order 2 < order 4 at actor 1: 3.5 < 3.6";
          spec;
        }
      in
      let text = Check.Corpus.to_string entry in
      match Check.Corpus.of_string text with
      | Error e -> Alcotest.failf "corpus parse: %s\n%s" e text
      | Ok entry' ->
          Alcotest.(check string) "property" entry.property entry'.property;
          Alcotest.(check string) "detail" entry.detail entry'.detail;
          Alcotest.(check bool) "spec" true (spec_eq entry.spec entry'.spec);
          let name = Check.Corpus.filename entry in
          Alcotest.(check bool) "filename prefix" true
            (String.length name > 14
            && String.sub name 0 14 = "order-sandwich");
          Alcotest.(check string) "filename suffix" ".case"
            (String.sub name (String.length name - 5) 5))
    sample_specs

let strip_elapsed (r : Check.Fuzz.result) = { r with Check.Fuzz.elapsed_s = 0. }

let test_fuzz_run_small () =
  let r = Check.Fuzz.run ~jobs:2 ~seeds:25 () in
  Alcotest.(check bool) "passed" true (Check.Fuzz.passed r);
  Alcotest.(check int) "all ran" 25 r.ran;
  Alcotest.(check int) "none skipped" 0 r.skipped;
  Alcotest.(check (list string)) "accuracy rows"
    (List.map fst Check.Oracle.estimators)
    (List.map (fun (a : Check.Fuzz.accuracy) -> a.estimator) r.accuracy);
  List.iter
    (fun (a : Check.Fuzz.accuracy) ->
      if a.samples <= 0 then Alcotest.failf "%s: no samples" a.estimator;
      if not (Float.is_finite a.mean_err && a.mean_err >= 0.) then
        Alcotest.failf "%s: bad mean %g" a.estimator a.mean_err;
      if a.max_err < a.mean_err then
        Alcotest.failf "%s: max %g < mean %g" a.estimator a.max_err a.mean_err)
    r.accuracy;
  (* Determinism across job counts: the pool merge is seed-ordered. *)
  let r' = Check.Fuzz.run ~jobs:1 ~seeds:25 () in
  Alcotest.(check bool) "jobs-independent" true
    (strip_elapsed r = strip_elapsed r');
  let rendered = Check.Report.render r in
  Alcotest.(check bool) "report mentions no violations" true
    (Fixtures.contains ~affix:"violations: none" rendered)

let test_fuzz_budget_skips () =
  let r = Check.Fuzz.run ~jobs:1 ~budget_s:0. ~seeds:10 () in
  Alcotest.(check int) "accounted" 10 (r.ran + r.skipped);
  Alcotest.(check bool) "budget skipped seeds" true (r.skipped >= 9);
  Alcotest.(check bool) "skipping is not failing" true (Check.Fuzz.passed r)

let test_corpus_replay () =
  (* The committed counterexamples document bugs that are fixed: each must
     parse and re-check clean.  The corpus directory is a dune dep, so this
     runs against the checked-in files on every dune runtest ([dune runtest]
     executes in the sandboxed test directory; [dune exec] from the root
     needs the source path). *)
  let dir = if Sys.file_exists "corpus" then "corpus" else "test/corpus" in
  let outcomes, errors = Check.Fuzz.replay ~dir () in
  (match errors with
  | [] -> ()
  | (path, e) :: _ -> Alcotest.failf "unreadable corpus file %s: %s" path e);
  Alcotest.(check bool) "corpus is not empty" true (outcomes <> []);
  List.iter
    (fun (path, (o : Check.Oracle.outcome)) ->
      match o.violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "corpus case %s regressed: %s: %s" path
            v.Check.Oracle.property v.Check.Oracle.detail)
    outcomes

let test_wirefuzz_line_deterministic () =
  let lines seed =
    let rng = Rng.create seed in
    List.init 30 (fun _ -> Check.Wirefuzz.fuzz_line rng)
  in
  Alcotest.(check (list string)) "same seed, same stream" (lines 4) (lines 4);
  Alcotest.(check bool) "different seed, different stream" true
    (lines 4 <> lines 5)

let test_wirefuzz_run () =
  let r = Check.Wirefuzz.run ~seeds:60 () in
  (match r.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "wire violation: %s: %s" v.Check.Oracle.property
        v.Check.Oracle.detail);
  Alcotest.(check bool) "made requests" true (r.requests >= 60)

let test_wirefuzz_edge_values () =
  let config =
    { Serve.Server.default_config with port = Some 0; jobs = Some 1 }
  in
  let server = Serve.Server.start ~config () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.stop server)
    (fun () ->
      let r = Check.Wirefuzz.fuzz_edge_values server in
      (match r.violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "edge-value violation: %s: %s" v.Check.Oracle.property
            v.Check.Oracle.detail);
      (* Four uploads, and the valid scaled workload estimated four ways. *)
      Alcotest.(check bool) "made requests" true (r.requests >= 8))

let suite =
  [
    Alcotest.test_case "spec line round-trip" `Quick test_spec_line_roundtrip;
    Alcotest.test_case "spec parser is total" `Quick test_spec_line_total;
    Alcotest.test_case "random specs are valid and materialize" `Quick
      test_random_specs_materialize;
    Alcotest.test_case "materialization is deterministic" `Quick
      test_materialize_deterministic;
    Alcotest.test_case "invalid specs rejected" `Quick
      test_materialize_rejects_invalid;
    Alcotest.test_case "shrink reaches the floor" `Quick test_shrink_synthetic;
    Alcotest.test_case "shrink attempt budget" `Quick
      test_shrink_respects_budget;
    Alcotest.test_case "oracle kernel clean on sane loads" `Quick
      test_oracle_kernel_clean;
    Alcotest.test_case "oracle catches injected sign bug" `Quick
      test_oracle_catches_injected_bug;
    Alcotest.test_case "corpus entry round-trip" `Quick test_corpus_roundtrip;
    Alcotest.test_case "fuzz campaign, small and deterministic" `Slow
      test_fuzz_run_small;
    Alcotest.test_case "zero budget skips, not fails" `Quick
      test_fuzz_budget_skips;
    Alcotest.test_case "corpus replay is clean" `Slow test_corpus_replay;
    Alcotest.test_case "wire fuzz lines deterministic" `Quick
      test_wirefuzz_line_deterministic;
    Alcotest.test_case "wire fuzz campaign" `Slow test_wirefuzz_run;
    Alcotest.test_case "wire fuzz edge-value workloads" `Quick
      test_wirefuzz_edge_values;
  ]
