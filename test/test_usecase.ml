open Contention

let test_roundtrip () =
  let u = Usecase.of_list [ 0; 2; 5 ] in
  Alcotest.(check (list int)) "to_list" [ 0; 2; 5 ] (Usecase.to_list u);
  Alcotest.(check int) "cardinal" 3 (Usecase.cardinal u);
  Alcotest.(check bool) "mem 2" true (Usecase.mem 2 u);
  Alcotest.(check bool) "mem 3" false (Usecase.mem 3 u)

let test_add_remove () =
  let u = Usecase.add 4 (Usecase.of_list [ 1 ]) in
  Alcotest.(check (list int)) "added" [ 1; 4 ] (Usecase.to_list u)

let test_all_count () =
  (* 2^10 - 1 = 1023, the paper's "over a thousand use-cases". *)
  Alcotest.(check int) "1023 use-cases" 1023 (List.length (Usecase.all ~napps:10));
  Alcotest.(check int) "single app" 1 (List.length (Usecase.all ~napps:1));
  (* None empty, all distinct. *)
  let cases = Usecase.all ~napps:5 in
  Alcotest.(check bool) "no empty" true (List.for_all (fun u -> Usecase.cardinal u > 0) cases);
  Alcotest.(check int) "distinct" 31 (List.length (List.sort_uniq Int.compare cases))

let test_full () =
  let f = Usecase.full ~napps:4 in
  Alcotest.(check (list int)) "full" [ 0; 1; 2; 3 ] (Usecase.to_list f)

let test_invalid () =
  (match Usecase.of_list [ -1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative index accepted");
  match Usecase.all ~napps:31 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "napps 31 accepted"

let test_pp () =
  let s = Format.asprintf "%a" (Usecase.pp ~napps:4) (Usecase.of_list [ 0; 2 ]) in
  Alcotest.(check string) "pp" "{A,C}" s

let prop_roundtrip =
  Fixtures.qcheck_case "of_list . to_list = id"
    QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 20))
    (fun ids ->
      let distinct = List.sort_uniq Int.compare ids in
      Usecase.to_list (Usecase.of_list distinct) = distinct)

let prop_cardinal_popcount =
  Fixtures.qcheck_case "cardinal = list length" QCheck2.Gen.(int_range 0 ((1 lsl 12) - 1))
    (fun u -> Usecase.cardinal u = List.length (Usecase.to_list u))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "all count" `Quick test_all_count;
    Alcotest.test_case "full" `Quick test_full;
    Alcotest.test_case "invalid" `Quick test_invalid;
    Alcotest.test_case "pp" `Quick test_pp;
    prop_roundtrip;
    prop_cardinal_popcount;
  ]
