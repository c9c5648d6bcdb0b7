type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_num buf x =
  if not (Float.is_finite x) then
    invalid_arg "Serve.Json.to_string: non-finite number";
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else
    (* 17 significant digits reparse to the identical IEEE double. *)
    Buffer.add_string buf (Printf.sprintf "%.17g" x)

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
  let peek () = if !pos < n then Some s.[!pos] else None in
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
  let string_lit () =
    expect '"';
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
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        incr pos
      done;
      if !pos = d0 then fail "malformed number"
    in
    digits ();
    if peek () = Some '.' then begin incr pos; digits () end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
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
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | _ -> lit "null" Null
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ((k, v) :: acc)
            | Some '}' -> incr pos; List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; Arr [] end
        else begin
          let rec elements acc =
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elements (v :: acc)
            | Some ']' -> incr pos; List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | Some '"' -> Str (string_lit ())
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
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
