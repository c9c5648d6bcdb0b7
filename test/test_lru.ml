(* Serve.Lru edge cases: degenerate capacities, exact eviction order, and
   concurrent access from two domains (the daemon shares one cache across
   all worker domains). *)

module Lru = Serve.Lru

let test_capacity_zero_rejected () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Serve.Lru.create: capacity < 1") (fun () ->
      ignore (Lru.create ~capacity:0 : (int, int) Lru.t));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Serve.Lru.create: capacity < 1") (fun () ->
      ignore (Lru.create ~capacity:(-3) : (int, int) Lru.t))

let test_capacity_one () =
  let c = Lru.create ~capacity:1 in
  Alcotest.(check (option int)) "empty miss" None (Lru.find c "a");
  Lru.put c "a" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Lru.find c "a");
  (* Refresh must not evict. *)
  Lru.put c "a" 2;
  Alcotest.(check (option int)) "refreshed" (Some 2) (Lru.find c "a");
  Alcotest.(check int) "length stays 1" 1 (Lru.length c);
  (* Any new key evicts the only resident. *)
  Lru.put c "b" 3;
  Alcotest.(check (option int)) "a evicted" None (Lru.find c "a");
  Alcotest.(check (option int)) "b resident" (Some 3) (Lru.find c "b");
  Alcotest.(check int) "length still 1" 1 (Lru.length c);
  Alcotest.(check int) "capacity" 1 (Lru.capacity c)

let test_eviction_order () =
  let c = Lru.create ~capacity:3 in
  Lru.put c 1 "one";
  Lru.put c 2 "two";
  Lru.put c 3 "three";
  (* Touch 1: recency becomes 1 > 3 > 2, so 2 is next out. *)
  Alcotest.(check (option string)) "promote 1" (Some "one") (Lru.find c 1);
  Lru.put c 4 "four";
  Alcotest.(check (option string)) "2 evicted" None (Lru.find c 2);
  Alcotest.(check (option string)) "1 kept" (Some "one") (Lru.find c 1);
  Alcotest.(check (option string)) "3 kept" (Some "three") (Lru.find c 3);
  (* A put-refresh also promotes: refresh 4, insert two more — the
     untouched 1 then 3 go, in that order. *)
  Lru.put c 4 "four'";
  Lru.put c 5 "five";
  Alcotest.(check (option string)) "LRU 1 evicted next" None (Lru.find c 1);
  Lru.put c 6 "six";
  Alcotest.(check (option string)) "then 3" None (Lru.find c 3);
  Alcotest.(check (option string)) "4 survived both" (Some "four'")
    (Lru.find c 4);
  Alcotest.(check int) "full" 3 (Lru.length c)

let test_two_domain_interleaving () =
  (* Two domains hammer one cache with overlapping keys.  The interleaving
     is nondeterministic, so assert the invariants that must hold under any
     schedule: never over capacity, a found value is always the value some
     put stored for that key, and the eight keys put (0, 3, 6, 9 by one
     domain, 2, 5, 8, 11 by the other) fit the capacity, so none of them is
     ever evicted. *)
  let capacity = 8 in
  let c = Lru.create ~capacity in
  let worker domain_id =
    let bad = ref [] in
    for i = 0 to 4_999 do
      let k = (domain_id + i) mod 12 in
      if i mod 3 = 0 then Lru.put c k (k * 10)
      else begin
        match Lru.find c k with
        | None -> ()
        | Some v when v = k * 10 -> ()
        | Some v -> bad := (k, v) :: !bad
      end;
      if Lru.length c > capacity then bad := (-1, Lru.length c) :: !bad
    done;
    !bad
  in
  let d1 = Domain.spawn (fun () -> worker 0) in
  let d2 = Domain.spawn (fun () -> worker 5) in
  let bad = Domain.join d1 @ Domain.join d2 in
  (match bad with
  | [] -> ()
  | (k, v) :: _ ->
      Alcotest.failf "invariant broken (%d cases), first: key %d value %d"
        (List.length bad) k v);
  Alcotest.(check int) "every put key resident" capacity (Lru.length c);
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "key %d" k)
        (Some (k * 10)) (Lru.find c k))
    [ 0; 2; 3; 5; 6; 8; 9; 11 ]

let suite =
  [
    Alcotest.test_case "capacity < 1 rejected" `Quick test_capacity_zero_rejected;
    Alcotest.test_case "capacity 1" `Quick test_capacity_one;
    Alcotest.test_case "eviction order with promotion" `Quick
      test_eviction_order;
    Alcotest.test_case "two-domain interleaved get/put" `Quick
      test_two_domain_interleaving;
  ]
