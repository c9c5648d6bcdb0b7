type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let hex = "0123456789abcdef"

(* The first index from [i] of a byte that a string literal cannot carry as
   is, or the length of [s]. *)
let rec plain_end s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> plain_end s (i + 1)

let add_escaped buf s =
  Buffer.add_char buf '"';
  (* The plain prefix, usually the whole string, in one copy. *)
  let i = plain_end s 0 in
  Buffer.add_substring buf s 0 i;
  for j = i to String.length s - 1 do
    match String.unsafe_get s j with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\b' -> Buffer.add_string buf "\\b"
    | '\012' -> Buffer.add_string buf "\\f"
    | c when Char.code c < 0x20 ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 15]
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

(* [%.17g] without [Printf].  A positive double is [m * 2^e] with a 53-bit
   [m]; its 17 digits are [m * 2^e * 10^s] rounded half to even, as the C
   library rounds, for the [s] that puts that in [10^16, 10^17), and its
   exponent is [16 - s].  For [0 <= s <= 26], about [1e-10 <= x < 1e17],
   [m * 5^s] fits 114 bits (31-bit limbs) and [2^(e + s)] is a shift, so the
   digits are exact; [Printf] prints the rest. *)
let pow5 = Array.make 27 1
let () = for k = 1 to 26 do pow5.(k) <- 5 * pow5.(k - 1) done

let mask31 = (1 lsl 31) - 1
let e17 = 100_000_000_000_000_000

(* [m * 2^e * 10^s] rounded half to even, or [-1] if that is [10^17] or
   more.  Needs [10^16 - 1 < m * 2^e * 10^s < 10^18], so that [q] below
   fits an int and at most 60 bits are shifted out. *)
let scaled m e s =
  let p = pow5.(s) in
  let m0 = m land mask31 and m1 = m lsr 31 in
  let p0 = p land mask31 and p1 = p lsr 31 in
  let c = m0 * p0 in
  let l0 = c land mask31 in
  let c = (m0 * p1) + (m1 * p0) + (c lsr 31) in
  (* m * 5^s = hi * 2^62 + lo *)
  let lo = l0 lor ((c land mask31) lsl 31) in
  let hi = (m1 * p1) + (c lsr 31) in
  (* [r > 0] bits are shifted out: the first is the half, the rest break
     a tie. *)
  let r = -(e + s) in
  let q = if r <= 0 then lo lsl -r else (lo lsr r) lor (hi lsl (62 - r)) in
  let half = r > 0 && (lo lsr (r - 1)) land 1 = 1 in
  let q =
    if half && (lo land ((1 lsl (r - 1)) - 1) <> 0 || q land 1 = 1) then q + 1
    else q
  in
  if q >= e17 then -1 else q

(* The [n] low decimal digits of [d] at [out.[p .. p + n - 1]]. *)
let put_digits out p d n =
  let d = ref d in
  for i = p + n - 1 downto p do
    Bytes.unsafe_set out i (Char.unsafe_chr (48 + (!d mod 10)));
    d := !d / 10
  done

let add_g17 buf x =
  let b = Int64.to_int (Int64.bits_of_float (Float.abs x)) in
  let be = b lsr 52 in
  let m = b land ((1 lsl 52) - 1) lor (1 lsl 52) and e = be - 1075 in
  (* floor (log10 2^(be - 1023)); x's decimal exponent, rounded to 17
     digits, is it or one more. *)
  let x0 = ((be - 1023) * 78913) asr 18 in
  let s = ref (16 - x0) and d = ref (-1) in
  if be > 0 && !s >= 0 && !s <= 26 then begin
    d := scaled m e !s;
    if !d < 0 && !s > 0 then begin
      decr s;
      d := scaled m e !s
    end
  end;
  if !d < 0 then Buffer.add_string buf (Printf.sprintf "%.17g" x)
  else begin
    let d = !d and x10 = 16 - !s in
    (* d.ddde-XX, ddd.ddd, or 0.000ddd as ddd after -x10 zeros; [ip] digits
       go before the point.  [%.17g]'s other exponent form, for [x10 >= 17],
       is out of range. *)
    let sci = x10 < -4 in
    let z = if sci then 0 else Int.max 0 (-x10) in
    let ip = if sci then 1 else Int.max 0 x10 + 1 in
    let out = Bytes.create 24 in
    let p = if x < 0. then (Bytes.set out 0 '-'; 1) else 0 in
    Bytes.fill out p z '0';
    put_digits out (p + z) d 17;
    let nd = ref (z + 17) in
    while Bytes.get out (p + !nd - 1) = '0' do
      decr nd
    done;
    (* A fraction moves right to make room for the point. *)
    let k =
      if !nd <= ip then p + ip
      else begin
        Bytes.blit out (p + ip) out (p + ip + 1) (!nd - ip);
        Bytes.set out (p + ip) '.';
        p + !nd + 1
      end
    in
    if sci then begin
      Bytes.blit_string "e-" 0 out k 2;
      put_digits out (k + 2) (-x10) 2
    end;
    Buffer.add_subbytes buf out 0 (if sci then k + 4 else k)
  end

let add_num buf x =
  if not (Float.is_finite x) then
    invalid_arg "Serve.Json.to_string: non-finite number";
  if Float.is_integer x && Float.abs x < 1e15 then
    (* [%.0f]; 17 significant digits reparse to the identical double. *)
    Buffer.add_string buf
      (if x = 0. && Float.sign_bit x then "-0" else string_of_int (int_of_float x))
  else add_g17 buf x

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> add_num buf x
    | Str s -> add_escaped buf s
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            add_escaped buf k;
            Buffer.add_char buf ':';
            go x)
          kvs;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Fail of string * int

let utf8_add buf cp =
  let add b = Buffer.add_char buf (Char.chr b) in
  if cp < 0x80 then add cp
  else if cp < 0x800 then begin
    add (0xC0 lor (cp lsr 6));
    add (0x80 lor (cp land 0x3F))
  end
  else if cp < 0x10000 then begin
    add (0xE0 lor (cp lsr 12));
    add (0x80 lor ((cp lsr 6) land 0x3F));
    add (0x80 lor (cp land 0x3F))
  end
  else begin
    add (0xF0 lor (cp lsr 18));
    add (0x80 lor ((cp lsr 12) land 0x3F));
    add (0x80 lor ((cp lsr 6) land 0x3F));
    add (0x80 lor (cp land 0x3F))
  end

let of_string ?(max_depth = 512) s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  (* The next byte, or ['\000'] at the end ([value] checks for the end). *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  (* A string literal's rest after its opening quote, escapes and all. *)
  let escaped_lit () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "truncated escape";
          (match s.[!pos] with
          | '"' -> incr pos; Buffer.add_char buf '"'
          | '\\' -> incr pos; Buffer.add_char buf '\\'
          | '/' -> incr pos; Buffer.add_char buf '/'
          | 'b' -> incr pos; Buffer.add_char buf '\b'
          | 'f' -> incr pos; Buffer.add_char buf '\012'
          | 'n' -> incr pos; Buffer.add_char buf '\n'
          | 'r' -> incr pos; Buffer.add_char buf '\r'
          | 't' -> incr pos; Buffer.add_char buf '\t'
          | 'u' ->
              incr pos;
              let cp = hex4 () in
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                (* High surrogate: a low surrogate must follow. *)
                if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
                then fail "unpaired high surrogate";
                pos := !pos + 2;
                let lo = hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then fail "invalid low surrogate";
                utf8_add buf
                  (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                fail "unpaired low surrogate"
              else utf8_add buf cp
          | _ -> fail "invalid escape");
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          incr pos;
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  (* A literal with no escape and no control byte is a slice of [s]. *)
  let string_lit () =
    expect '"';
    let start = !pos in
    let i = plain_end s start in
    if i < n && String.unsafe_get s i = '"' then begin
      pos := i + 1;
      String.sub s start (i - start)
    end
    else escaped_lit ()
  in
  let is_digit c = c >= '0' && c <= '9' in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    (* RFC 8259: no digit after a leading zero. *)
    if peek () = '0' && !pos + 1 < n && is_digit s.[!pos + 1] then begin
      incr pos;
      fail "malformed number"
    end;
    let digits () =
      let d0 = !pos in
      while !pos < n && is_digit s.[!pos] do
        incr pos
      done;
      if !pos = d0 then fail "malformed number"
    in
    digits ();
    if peek () = '.' then begin incr pos; digits () end;
    (match peek () with
    | 'e' | 'E' ->
        incr pos;
        (match peek () with '+' | '-' -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x when Float.is_finite x -> Num x
    | Some _ -> fail "number out of range"  (* e.g. 1e999 overflows *)
    | None -> fail "malformed number"
  in
  let keyword () =
    let lit word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail "invalid literal"
    in
    match peek () with
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | _ -> lit "null" Null
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | _ when !pos >= n -> fail "unexpected end of input"
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin incr pos; Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; members ((k, v) :: acc)
            | '}' -> incr pos; List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin incr pos; Arr [] end
        else begin
          let rec elements acc =
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | ',' -> incr pos; elements (v :: acc)
            | ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | '"' -> Str (string_lit ())
    | 't' | 'f' | 'n' -> keyword ()
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after value";
    v
  with
  | v -> Ok v
  | exception Fail (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let get_str = function Str s -> Some s | _ -> None
let get_num = function Num x -> Some x | _ -> None

let get_int = function
  | Num x when Float.is_integer x && Float.abs x <= 1e15 -> Some (int_of_float x)
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_arr = function Arr xs -> Some xs | _ -> None
let get_obj = function Obj kvs -> Some kvs | _ -> None

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)

(* Decoders raise [Wrong_type] on a shape mismatch, which the enclosing
   member turns into its "wrong type" message, and [Invalid] with a final
   message; {!decode}, {!field} and {!opt_field} catch both, so the public
   surface is total. *)
exception Wrong_type
exception Invalid of string

type 'a codec = { enc : 'a -> t; dec : t -> 'a }

let encode c v = c.enc v

let decode c json =
  match c.dec json with
  | v -> Ok v
  | exception Invalid msg -> Error msg
  | exception Wrong_type -> Error "value has the wrong type"

let value = { enc = Fun.id; dec = Fun.id }

let leaf enc get =
  let dec json = match get json with Some v -> v | None -> raise Wrong_type in
  { enc; dec }

let num = leaf (fun x -> Num x) get_num
let int = leaf (fun i -> Num (float_of_int i)) get_int
let str = leaf (fun s -> Str s) get_str
let bool = leaf (fun b -> Bool b) get_bool

let list c =
  {
    enc = (fun xs -> Arr (List.map c.enc xs));
    dec = (function Arr xs -> List.map c.dec xs | _ -> raise Wrong_type);
  }

let conv of_ to_ c =
  {
    enc = (fun v -> c.enc (to_ v));
    dec =
      (fun json ->
        match of_ (c.dec json) with
        | Ok v -> v
        | Error msg -> raise (Invalid msg));
  }

let member_value name c v =
  try c.dec v
  with Wrong_type ->
    raise (Invalid (Printf.sprintf "field %S has the wrong type" name))

let member_exn name c json =
  match member name json with
  | None -> raise (Invalid (Printf.sprintf "missing field %S" name))
  | Some v -> member_value name c v

let opt_member_exn name c json =
  match member name json with
  | None | Some Null -> None
  | Some v -> Some (member_value name c v)

let field name c json =
  match member_exn name c json with
  | v -> Ok v
  | exception Invalid msg -> Error msg

let opt_field name c json =
  match opt_member_exn name c json with
  | v -> Ok v
  | exception Invalid msg -> Error msg

(* An object under construction: [members] conses the declared members
   in front of a tail (so the last declared is consed first and no list is
   reversed), [build] applies the constructor to the members in declaration
   order. *)
type ('r, 'k) obj = {
  members : 'r -> (string * t) list -> (string * t) list;
  build : t -> 'k;
}

let obj k = { members = (fun _ tail -> tail); build = (fun _ -> k) }

let mem name c get o =
  {
    members = (fun r tail -> o.members r ((name, c.enc (get r)) :: tail));
    build =
      (fun json ->
        let k = o.build json in
        k (member_exn name c json));
  }

let opt_mem name c get o =
  {
    members =
      (fun r tail ->
        o.members r
          (match get r with None -> tail | Some v -> (name, c.enc v) :: tail));
    build =
      (fun json ->
        let k = o.build json in
        k (opt_member_exn name c json));
  }

let finish o = { enc = (fun r -> Obj (o.members r [])); dec = o.build }
