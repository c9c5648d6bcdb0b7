(* Shared test fixtures: the paper's Figure 2 graphs and common generators. *)

(* Graph A of Figure 2: a0 (tau 100, q 1), a1 (tau 50, q 2), a2 (tau 100, q 1),
   strongly connected ring with one initial token closing the cycle.
   Per(A) = 300. *)
let graph_a () =
  Sdf.Graph.create ~name:"A"
    ~actors:[| ("a0", 100.); ("a1", 50.); ("a2", 100.) |]
    ~channels:[| (0, 1, 2, 1, 0); (1, 2, 1, 2, 0); (2, 0, 1, 1, 1) |]

(* Graph B of Figure 2: b0 (tau 50, q 2), b1 (tau 100, q 1), b2 (tau 100, q 1).
   Per(B) = 300. *)
let graph_b () =
  Sdf.Graph.create ~name:"B"
    ~actors:[| ("b0", 50.); ("b1", 100.); ("b2", 100.) |]
    ~channels:[| (0, 1, 1, 2, 0); (1, 2, 2, 2, 0); (2, 0, 2, 1, 2) |]

(* A minimal two-actor pipeline with feedback; Per = tau0 + tau1. *)
let pipeline ?(tau0 = 3.) ?(tau1 = 5.) () =
  Sdf.Graph.create ~name:"pipe"
    ~actors:[| ("p0", tau0); ("p1", tau1) |]
    ~channels:[| (0, 1, 1, 1, 0); (1, 0, 1, 1, 1) |]

(* Self-loop only: a single actor ticking with its own period. *)
let single ?(tau = 7.) () =
  Sdf.Graph.create ~name:"single"
    ~actors:[| ("s0", tau) |]
    ~channels:[| (0, 0, 1, 1, 1) |]

(* A graph that deadlocks: a two-cycle with no initial tokens. *)
let deadlocked () =
  Sdf.Graph.create ~name:"dead"
    ~actors:[| ("d0", 1.); ("d1", 1.) |]
    ~channels:[| (0, 1, 1, 1, 0); (1, 0, 1, 1, 0) |]

(* An inconsistent graph: rates that admit no repetition vector. *)
let inconsistent () =
  Sdf.Graph.create ~name:"incons"
    ~actors:[| ("i0", 1.); ("i1", 1.) |]
    ~channels:[| (0, 1, 2, 1, 0); (1, 0, 1, 1, 4) |]

let float_eq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps *. Float.max 1. (Float.abs a)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let check_float ?(eps = 1e-6) msg expected actual =
  if not (float_eq ~eps expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* Periods every period-taking entry point must refuse.  NaN is the one a
   [period <= 0.] test lets through: a simulation that completes no
   iteration measures it. *)
let check_refuses_bad_periods what f =
  List.iter
    (fun period ->
      match f period with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted period %g" what period)
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -1. ]

(* QCheck generator for a list of plausible actor loads. *)
let load_gen ?(max_actors = 6) () =
  let open QCheck2.Gen in
  let load =
    let* p = float_bound_inclusive 0.95 in
    let* tau = float_range 1. 100. in
    return (Contention.Prob.make ~p ~mu:(tau /. 2.) ~tau)
  in
  let* n = int_range 0 max_actors in
  list_size (return n) load

(* QCheck generator for random live SDF graphs via the project generator. *)
let graph_gen =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let params =
    {
      Sdfgen.Generator.default_params with
      actors_min = 2;
      actors_max = 6;
      exec_min = 1;
      exec_max = 20;
      extra_channels = 2;
    }
  in
  return (Sdfgen.Generator.generate ~params (Sdfgen.Rng.create seed) ~name:"G")

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Helpers of the tests that drive a live daemon. *)
module Daemon = struct
  let unwrap = function
    | Ok v -> v
    | Error msg -> Alcotest.failf "unexpected error: %s" msg

  let expect_error what = function
    | Ok _ -> Alcotest.failf "%s: expected an error reply" what
    | Error (_ : string) -> ()

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

  (* A server on an ephemeral TCP port, or on [unix_path] alone. *)
  let start_server ?on_hot ?(jobs = 2) ?(cache_capacity = 16)
      ?(max_line = Serve.Server.default_config.max_line) ?(max_queue = 1024)
      ?(hot_threshold = 0) ?unix_path () =
    let config =
      {
        Serve.Server.default_config with
        port = (if unix_path = None then Some 0 else None);
        unix_path;
        jobs = Some jobs;
        cache_capacity;
        max_line;
        max_queue;
        hot_threshold;
      }
    in
    Serve.Server.start ?on_hot ~config ()

  let tcp_endpoint server =
    Cluster.Endpoint.Tcp
      { host = "127.0.0.1"; port = Option.get (Serve.Server.tcp_port server) }

  (* [f server port] on a fresh TCP server, stopped afterwards. *)
  let with_server ?jobs ?cache_capacity ?(max_line = 64 * 1024) f =
    let server = start_server ?jobs ?cache_capacity ~max_line () in
    let port = Option.get (Serve.Server.tcp_port server) in
    Fun.protect ~finally:(fun () -> Serve.Server.stop server) (fun () -> f server port)
end
