open Sdf

let test_roundtrip_paper_graph () =
  let g = Fixtures.graph_a () in
  match Text.of_string (Text.to_string g) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok g' -> Alcotest.(check bool) "equal" true (Graph.equal_structure g g')

let test_parse_handwritten () =
  let src =
    "# a small pipeline\n\
     graph \"pipe\"\n\n\
     actor p0 3\n\
     actor p1 5\n\
     channel p0 -> p1 produce 1 consume 1 tokens 0\n\
     channel p1 -> p0 produce 1 consume 1 tokens 1\n"
  in
  let g = Result.get_ok (Text.of_string src) in
  Alcotest.(check string) "name" "pipe" g.Graph.name;
  Alcotest.(check int) "actors" 2 (Graph.num_actors g);
  Fixtures.check_float "period" 8. (Statespace.period_exn g)

let expect_error msg src =
  match Text.of_string src with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: parse succeeded" msg

let test_errors () =
  expect_error "missing graph" "actor a 1\n";
  expect_error "unquoted name" "graph pipe\n";
  expect_error "bad time" "graph \"g\"\nactor a x\n";
  expect_error "duplicate actor" "graph \"g\"\nactor a 1\nactor a 2\n";
  expect_error "unknown channel source" "graph \"g\"\nactor a 1\nchannel b -> a produce 1 consume 1 tokens 0\n";
  expect_error "unknown channel target" "graph \"g\"\nactor a 1\nchannel a -> b produce 1 consume 1 tokens 0\n";
  expect_error "bad rate" "graph \"g\"\nactor a 1\nchannel a -> a produce x consume 1 tokens 0\n";
  expect_error "negative tokens" "graph \"g\"\nactor a 1\nchannel a -> a produce 1 consume 1 tokens -2\n";
  expect_error "garbage" "graph \"g\"\nwibble\n";
  expect_error "duplicate graph" "graph \"g\"\ngraph \"h\"\n";
  (* Error message carries the line number. *)
  match Text.of_string "graph \"g\"\nactor a 1\nwibble\n" with
  | Error msg -> Alcotest.(check bool) "line number" true (Fixtures.contains ~affix:"line 3" msg)
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_file_roundtrip () =
  let g = Fixtures.graph_b () in
  let path = Filename.temp_file "sdf" ".sdf" in
  Text.write_file path g;
  (match Text.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok g' -> Alcotest.(check bool) "file roundtrip" true (Graph.equal_structure g g')
  | Error msg -> Alcotest.failf "read failed: %s" msg);
  Sys.remove path

let prop_roundtrip_random =
  Fixtures.qcheck_case ~count:100 "roundtrip random graphs" Fixtures.graph_gen (fun g ->
      match Text.of_string (Text.to_string g) with
      | Error _ -> false
      | Ok g' -> Graph.equal_structure g g')

let suite =
  [
    Alcotest.test_case "roundtrip paper graph" `Quick test_roundtrip_paper_graph;
    Alcotest.test_case "parse handwritten" `Quick test_parse_handwritten;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    prop_roundtrip_random;
  ]
