open Sdf

let check_rat msg expected actual =
  Alcotest.(check string) msg expected (Rational.to_string actual)

let test_normalisation () =
  check_rat "6/4 = 3/2" "3/2" (Rational.make 6 4);
  check_rat "-6/4 = -3/2" "-3/2" (Rational.make (-6) 4);
  check_rat "6/-4 = -3/2" "-3/2" (Rational.make 6 (-4));
  check_rat "-6/-4 = 3/2" "3/2" (Rational.make (-6) (-4));
  check_rat "0/7 = 0" "0" (Rational.make 0 7);
  check_rat "int" "42" (Rational.of_int 42)

let test_zero_denominator () =
  Alcotest.check_raises "make x 0" Division_by_zero (fun () ->
      ignore (Rational.make 1 0))

let test_arithmetic () =
  let half = Rational.make 1 2 and third = Rational.make 1 3 in
  check_rat "1/2 * 1/3" "1/6" (Rational.mul half third);
  check_rat "inv 2/3" "3/2" (Rational.inv (Rational.make 2 3))

let test_division_by_zero () =
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Rational.inv (Rational.of_int 0)))

let test_conversions () =
  Fixtures.check_float "to_float" 0.5 (Rational.to_float (Rational.make 1 2));
  Alcotest.(check int) "to_int_exn" 5 (Rational.to_int_exn (Rational.make 10 2));
  (match Rational.to_int_exn (Rational.make 1 2) with
  | exception Invalid_argument _ -> ()
  | v -> Alcotest.failf "to_int_exn on 1/2 returned %d" v)

let test_gcd_lcm () =
  Alcotest.(check int) "gcd 12 18" 6 (Rational.gcd 12 18);
  Alcotest.(check int) "gcd 0 5" 5 (Rational.gcd 0 5);
  Alcotest.(check int) "gcd 0 0" 0 (Rational.gcd 0 0);
  Alcotest.(check int) "gcd negatives" 6 (Rational.gcd (-12) 18);
  Alcotest.(check int) "lcm 4 6" 12 (Rational.lcm 4 6);
  Alcotest.(check int) "lcm 0 6" 0 (Rational.lcm 0 6)

let rat_gen =
  let open QCheck2.Gen in
  let* num = int_range (-1000) 1000 in
  let* den = int_range 1 1000 in
  return (Rational.make num den)

let prop_mul_associative =
  Fixtures.qcheck_case "mul associative" QCheck2.Gen.(triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      Rational.equal
        (Rational.mul (Rational.mul a b) c)
        (Rational.mul a (Rational.mul b c)))

let prop_normal_form =
  Fixtures.qcheck_case "normal form" QCheck2.Gen.(pair rat_gen rat_gen) (fun (a, b) ->
      let r = Rational.mul a b in
      (r : Rational.t).den > 0 && Rational.gcd r.num r.den <= 1 || r.num = 0)

let suite =
  [
    Alcotest.test_case "normalisation" `Quick test_normalisation;
    Alcotest.test_case "zero denominator" `Quick test_zero_denominator;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "conversions" `Quick test_conversions;
    Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
    prop_mul_associative;
    prop_normal_form;
  ]
