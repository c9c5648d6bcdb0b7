let drain heap =
  let rec go acc =
    match Desim.Heap.pop heap with
    | None -> List.rev acc
    | Some (t, v) -> go ((t, v) :: acc)
  in
  go []

let test_empty () =
  let h : int Desim.Heap.t = Desim.Heap.create () in
  Alcotest.(check bool) "is_empty" true (Desim.Heap.is_empty h);
  Alcotest.(check int) "size" 0 (Desim.Heap.size h);
  Alcotest.(check bool) "pop empty" true (Desim.Heap.pop h = None);
  Alcotest.(check bool) "peek empty" true (Desim.Heap.peek_time h = None)

let test_ordering () =
  let h = Desim.Heap.create () in
  List.iter (fun t -> Desim.Heap.push h ~time:t (int_of_float t)) [ 5.; 1.; 3.; 2.; 4. ];
  Alcotest.(check int) "size" 5 (Desim.Heap.size h);
  Alcotest.(check bool) "peek" true (Desim.Heap.peek_time h = Some 1.);
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.map snd (drain h))

let test_fifo_ties () =
  let h = Desim.Heap.create () in
  List.iter (fun v -> Desim.Heap.push h ~time:1. v) [ 10; 20; 30 ];
  Desim.Heap.push h ~time:0.5 99;
  Alcotest.(check (list int)) "ties FIFO" [ 99; 10; 20; 30 ] (List.map snd (drain h))

let test_interleaved () =
  let h = Desim.Heap.create () in
  Desim.Heap.push h ~time:3. 3;
  Desim.Heap.push h ~time:1. 1;
  Alcotest.(check bool) "pop 1" true (Desim.Heap.pop h = Some (1., 1));
  Desim.Heap.push h ~time:2. 2;
  Alcotest.(check bool) "pop 2" true (Desim.Heap.pop h = Some (2., 2));
  Alcotest.(check bool) "pop 3" true (Desim.Heap.pop h = Some (3., 3))

let prop_heap_sort =
  Fixtures.qcheck_case ~count:300 "heap sorts like List.sort"
    QCheck2.Gen.(list (float_bound_inclusive 1000.))
    (fun times ->
      let h = Desim.Heap.create () in
      List.iteri (fun i t -> Desim.Heap.push h ~time:t i) times;
      let popped = List.map fst (drain h) in
      popped = List.sort Float.compare times)

let prop_stable_ties =
  (* Among equal keys, payloads come out in insertion order. *)
  Fixtures.qcheck_case ~count:200 "stability on ties"
    QCheck2.Gen.(list (int_range 0 3))
    (fun keys ->
      let h = Desim.Heap.create () in
      List.iteri (fun i k -> Desim.Heap.push h ~time:(float_of_int k) i) keys;
      let popped = drain h in
      let rec check_adjacent = function
        | (t1, v1) :: ((t2, v2) :: _ as rest) ->
            (if t1 = t2 then v1 < v2 else true) && check_adjacent rest
        | _ -> true
      in
      check_adjacent popped)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO ties" `Quick test_fifo_ties;
    Alcotest.test_case "interleaved" `Quick test_interleaved;
    prop_heap_sort;
    prop_stable_ties;
  ]
