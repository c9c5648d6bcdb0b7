(* The serve JSON codec: printer/parser round-trip with bit-for-bit number
   equality, totality of the parser on arbitrary and on corrupted bytes, and
   the strictness corners (escapes, surrogate pairs, depth limit, trailing
   bytes, raw control characters). *)

open QCheck2
module Json = Serve.Json

(* Structural equality with bitwise float comparison: the codec promises
   that cached estimates reparse to the identical IEEE double, and OCaml's
   polymorphic (=) would paper over -0. vs 0. *)
let rec json_eq a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Json.Arr xs, Json.Arr ys ->
      List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && json_eq v v')
           xs ys
  | (Json.Null | Json.Bool _ | Json.Str _), _ -> a = b
  | _ -> false

let finite_float =
  let open Gen in
  map
    (fun f -> if Float.is_finite f then f else 0.)
    (oneof
       [
         float;
         map float_of_int (int_range (-1_000_000) 1_000_000);
         oneofl
           [
             0.; -0.; 1.; -1.; 0.1; -0.1; 1e-300; 4.94e-324;
             1.7976931348623157e308; 1e15; 1e15 -. 1.; Float.pi;
           ];
       ])

(* Arbitrary-byte strings (not just printable): the escaper must handle
   control characters and non-UTF-8 bytes. *)
let byte_string = Gen.(string_size ~gen:char (int_bound 20))

let json_gen =
  let open Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Num x) finite_float;
        map (fun s -> Json.Str s) byte_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (2, scalar);
               ( 1,
                 map
                   (fun xs -> Json.Arr xs)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair byte_string (self (n / 2))))
               );
             ])

let prop_roundtrip =
  Fixtures.qcheck_case ~count:500 "of_string inverts to_string (bit-for-bit)"
    json_gen (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> json_eq j j'
      | Error e -> Test.fail_reportf "reparse failed: %s" e)

let prop_total_on_garbage =
  Fixtures.qcheck_case ~count:1000 "of_string never raises on arbitrary bytes"
    Gen.(string_size ~gen:char (int_bound 60))
    (fun s ->
      match Json.of_string s with Ok _ -> true | Error _ -> true)

(* Corrupting one byte of a valid document must yield Ok or Error — never an
   exception — and any Ok must still print. *)
let prop_total_on_corruption =
  Fixtures.qcheck_case ~count:500 "of_string survives single-byte corruption"
    Gen.(triple json_gen small_nat char)
    (fun (j, i, c) ->
      let s = Bytes.of_string (Json.to_string j) in
      Bytes.set s (i mod Bytes.length s) c;
      match Json.of_string (Bytes.to_string s) with
      | Ok v ->
          ignore (Json.to_string v : string);
          true
      | Error _ -> true
      | exception Invalid_argument _ ->
          (* The corrupted document may parse to a NaN?  It cannot: JSON has
             no NaN literal; to_string must accept every parsed value. *)
          false)

let check_parse msg expected s =
  match Json.of_string s with
  | Ok v ->
      if not (json_eq expected v) then
        Alcotest.failf "%s: parsed %s" msg (Json.to_string v)
  | Error e -> Alcotest.failf "%s: %s" msg e

(* [s] is refused with exactly [expected], offset included. *)
let check_error msg expected s =
  match Json.of_string s with
  | Ok v -> Alcotest.failf "%s: unexpectedly parsed %s" msg (Json.to_string v)
  | Error e -> Alcotest.(check string) msg expected e

let test_escapes () =
  check_parse "standard escapes"
    (Json.Str "a\nb\tA\\ \"/\b\012\r")
    {|"a\nb\tA\\ \"\/\b\f\r"|};
  check_parse "\\u BMP escape" (Json.Str "A\xc3\xa9") {|"Aé"|};
  check_parse "surrogate pair" (Json.Str "\xf0\x9f\x98\x80") {|"😀"|};
  check_error "unpaired high surrogate"
    "unpaired high surrogate at offset 7" {|"\ud83d"|};
  check_error "unpaired low surrogate" "unpaired low surrogate at offset 7"
    {|"\ude00"|};
  check_error "bad escape" "invalid escape at offset 2" {|"\q"|};
  check_error "raw control character"
    "raw control character in string at offset 2" "\"a\nb\"";
  check_error "truncated \\u" "truncated \\u escape at offset 3" {|"\u00|};
  (* Past a long plain prefix, the escape decodes and the control byte is
     refused where it stands. *)
  let plain = String.make 100 'a' in
  check_parse "escape after 100 plain bytes"
    (Json.Str (plain ^ "\n"))
    ("\"" ^ plain ^ {|\n"|});
  check_error "control byte after 100 plain bytes"
    "raw control character in string at offset 101"
    ("\"" ^ plain ^ "\001\"");
  check_error "unterminated after 100 plain bytes"
    "unterminated string at offset 101" ("\"" ^ plain)

let test_strictness () =
  check_parse "surrounding whitespace" (Json.Num 42.) " 42 ";
  check_error "trailing bytes" "trailing bytes after value at offset 2" "1 2";
  check_error "empty input" "unexpected end of input at offset 0" "";
  check_error "bare minus" "malformed number at offset 1" "-";
  check_error "overflowing number" "number out of range at offset 5" "1e999";
  check_error "leading plus" "unexpected character '+' at offset 0" "+1";
  check_error "unterminated array" "expected ',' or ']' at offset 5" "[1, 2";
  check_error "unterminated object" "expected ',' or '}' at offset 7"
    {|{"a": 1|};
  check_error "lone closing bracket" "unexpected character ']' at offset 0"
    "]";
  (* RFC 8259: no digit after a leading zero. *)
  check_error "leading zero" "malformed number at offset 1" "01";
  check_error "negative leading zero" "malformed number at offset 2" "-01";
  check_error "leading zero, fraction" "malformed number at offset 1" "00.5";
  List.iter
    (fun (x, s) -> check_parse s (Json.Num x) s)
    [ (0., "0"); (-0., "-0"); (0.5, "0.5"); (-500., "-0.5e3") ];
  (match Json.of_string "nul" with
  | Error e ->
      Alcotest.(check string) "truncated keyword" "invalid literal at offset 0" e
  | Ok _ -> Alcotest.fail "truncated keyword parsed");
  (* Offsets in messages. *)
  match Json.of_string "[1, x]" with
  | Error e ->
      if not (Fixtures.contains ~affix:"offset" e) then
        Alcotest.failf "no offset in error: %s" e;
      Alcotest.(check string)
        "unexpected character" "unexpected character 'x' at offset 4" e
  | Ok _ -> Alcotest.fail "parsed [1, x]"

let test_depth_limit () =
  let deep n = String.make n '[' ^ String.make n ']' in
  check_parse "nested arrays below the limit"
    (Json.Arr [ Json.Arr [ Json.Arr [] ] ])
    (deep 3);
  (match Json.of_string ~max_depth:8 (deep 10) with
  | Error e ->
      if not (Fixtures.contains ~affix:"deep" e) then
        Alcotest.failf "unexpected error: %s" e
  | Ok _ -> Alcotest.fail "parsed past max_depth");
  (* The default limit must reject adversarial nesting without touching the
     OS stack. *)
  match Json.of_string (String.make 100_000 '[') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed unterminated deep nesting"

let test_numbers () =
  List.iter
    (fun x ->
      match Json.of_string (Json.to_string (Json.Num x)) with
      | Ok (Json.Num y) ->
          if Int64.bits_of_float x <> Int64.bits_of_float y then
            Alcotest.failf "%h reparsed to %h" x y
      | Ok v -> Alcotest.failf "%h reparsed to %s" x (Json.to_string v)
      | Error e -> Alcotest.failf "%h: %s" x e)
    [
      0.; -0.; 0.1; 2. /. 3.; 1e15 -. 1.; 1e15; 1e300; 4.94e-324;
      Float.max_float; Float.min_float; 1. /. 3.; 123456789.123456789;
    ];
  (try
     ignore (Json.to_string (Json.Num Float.nan) : string);
     Alcotest.fail "NaN printed"
   with Invalid_argument _ -> ());
  try
    ignore (Json.to_string (Json.Num Float.infinity) : string);
    Alcotest.fail "infinity printed"
  with Invalid_argument _ -> ()

(* The printer against the rule it implements, as the C library applies it:
   [%.0f] for integers below 1e15 in magnitude, [%.17g] for every other
   finite number.  Over a million seeded doubles, in and out of the exact
   writer's range. *)
let printf_rule x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let test_printer_agreement () =
  let rng = Random.State.make [| 35 |] in
  let checked = ref 0 in
  let check x =
    if Float.is_finite x then begin
      incr checked;
      let got = Json.to_string (Json.Num x) in
      let want = printf_rule x in
      if not (String.equal got want) then
        Alcotest.failf "%h printed %s, Printf %s" x got want
    end
  in
  (* Uniform bit patterns: mostly far outside the exact range. *)
  for _ = 1 to 250_000 do
    check (Int64.float_of_bits (Random.State.bits64 rng))
  done;
  (* Periods and throughputs, log-uniform from 1e-6 to 1e7, both signs. *)
  for _ = 1 to 250_000 do
    let x = 10. ** (Random.State.float rng 13. -. 6.) in
    check x;
    check (-.x)
  done;
  (* The exact range and past both its ends, log-uniform. *)
  for _ = 1 to 200_000 do
    check (10. ** (Random.State.float rng 30. -. 12.))
  done;
  (* Quarters and eighths in [2^43, 2^51): with 14 to 16 integer digits
     these are exact ties at the 18th digit, which round half to even. *)
  for _ = 1 to 100_000 do
    let i = (1 lsl 43) + Random.State.full_int rng ((1 lsl 51) - (1 lsl 43)) in
    let f = Random.State.int rng 8 in
    check (float_of_int ((i * 8) + f) /. 8.);
    check (float_of_int ((i * 4) + (f land 3)) /. 4.)
  done;
  (* Around every power of ten from 1e-12 to 1e22. *)
  for k = -12 to 22 do
    let p = float_of_string (Printf.sprintf "1e%d" k) in
    List.iter check [ p; Float.pred p; Float.succ p ]
  done;
  (* Subnormals, the ends of the double range, signed zeros, and the
     integer rule's edge. *)
  for _ = 1 to 1_000 do
    check (Int64.float_of_bits (Random.State.int64 rng 0x10_0000_0000_0000L))
  done;
  List.iter check
    [
      Float.succ 0.; Float.min_float; Float.pred Float.min_float;
      Float.max_float; -.Float.max_float; 0.; -0.; Float.pred 1e15;
      Float.succ 1e15; 1e16; 1e17;
    ];
  if !checked < 1_000_000 then Alcotest.failf "only %d doubles" !checked;
  (* The cases that tell a right writer from a near miss, pinned. *)
  List.iter
    (fun (x, s) -> Alcotest.(check string) s s (Json.to_string (Json.Num x)))
    [
      (1125899906842624.25, "1125899906842624.2");
      (1125899906842624.75, "1125899906842624.8");
      (1e-7, "9.9999999999999995e-08");
      (-0., "-0");
      (-1e15, "-1000000000000000");
      (0.1, "0.10000000000000001");
      (1e-5, "1.0000000000000001e-05");
    ]

let test_accessors () =
  let obj = Json.Obj [ ("a", Json.Num 3.); ("b", Json.Str "x") ] in
  (match Json.member "a" obj with
  | Some (Json.Num 3.) -> ()
  | _ -> Alcotest.fail "member a");
  (match Json.member "missing" obj with
  | None -> ()
  | Some _ -> Alcotest.fail "member missing");
  (match Json.get_int (Json.Num 3.) with
  | Some 3 -> ()
  | _ -> Alcotest.fail "get_int 3");
  (match Json.get_int (Json.Num 3.5) with
  | None -> ()
  | Some _ -> Alcotest.fail "get_int 3.5");
  match Json.get_str (Json.Num 3.) with
  | None -> ()
  | Some _ -> Alcotest.fail "get_str on Num"

(* The codec combinators: one declaration encodes members in order,
   omits absent optional ones, and decodes with the first bad member
   named. *)
type pair = { name : string; size : int option; tags : string list }

let pair =
  Json.(
    obj (fun name size tags -> { name; size; tags })
    |> mem "name" str (fun p -> p.name)
    |> opt_mem "size" int (fun p -> p.size)
    |> mem "tags" (list str) (fun p -> p.tags)
    |> finish)

let test_codec () =
  let decode s = Result.bind (Json.of_string s) (Json.decode pair) in
  let v = { name = "a"; size = Some 2; tags = [ "x"; "y" ] } in
  Alcotest.(check string)
    "encoding" {|{"name":"a","size":2,"tags":["x","y"]}|}
    (Json.to_string (Json.encode pair v));
  Alcotest.(check string)
    "absent optional member omitted" {|{"name":"a","tags":[]}|}
    (Json.to_string (Json.encode pair { v with size = None; tags = [] }));
  (match decode {|{"tags":[],"extra":1,"name":"a","size":null}|} with
  | Ok { name = "a"; size = None; tags = [] } -> ()
  | _ -> Alcotest.fail "null optional member, unknown member, any order");
  List.iter
    (fun (doc, msg) ->
      match decode doc with
      | Error m -> Alcotest.(check string) doc msg m
      | Ok _ -> Alcotest.failf "%s decoded" doc)
    [
      ({|{"size":1.5,"tags":[]}|}, {|missing field "name"|});
      ({|{"name":"a","size":1.5,"tags":[]}|}, {|field "size" has the wrong type|});
      ({|{"name":"a","size":1e16,"tags":[]}|}, {|field "size" has the wrong type|});
      ({|{"name":"a","tags":["x",1]}|}, {|field "tags" has the wrong type|});
      ({|[1]|}, {|missing field "name"|});
    ];
  let even =
    Json.conv
      (fun n -> if n mod 2 = 0 then Ok n else Error "odd")
      Fun.id Json.int
  in
  Alcotest.(check (result int string))
    "conv validates" (Error "odd")
    (Json.field "n" even (Json.Obj [ ("n", Json.Num 3.) ]));
  Alcotest.(check (result (option int) string))
    "opt_field null" (Ok None)
    (Json.opt_field "n" even (Json.Obj [ ("n", Json.Null) ]))

let suite =
  [
    Alcotest.test_case "escapes" `Quick test_escapes;
    Alcotest.test_case "codec" `Quick test_codec;
    Alcotest.test_case "strictness" `Quick test_strictness;
    Alcotest.test_case "depth limit" `Quick test_depth_limit;
    Alcotest.test_case "number round-trip" `Quick test_numbers;
    Alcotest.test_case "number printer = Printf" `Quick test_printer_agreement;
    Alcotest.test_case "accessors" `Quick test_accessors;
    prop_roundtrip;
    prop_total_on_garbage;
    prop_total_on_corruption;
  ]
