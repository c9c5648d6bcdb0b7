(** A minimal JSON codec for the wire protocol.

    The project deliberately carries no external JSON dependency; the daemon
    only needs objects, arrays, strings, finite numbers, booleans and null,
    with a printer whose float representation round-trips IEEE doubles
    bit-for-bit (so cached estimate answers equal direct
    {!Contention.Analysis} calls down to the last bit).

    {!of_string} is total: any byte string yields [Ok] or [Error], never an
    exception — malformed frames from the network must not crash the
    server.  Nesting depth is bounded to keep adversarial inputs like
    ["[[[[…"] from overflowing the stack. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Integral numbers of magnitude below
    1e15 print without a fractional part, as C's [%.0f] would; all other
    finite numbers print with 17 significant digits, as [%.17g] would,
    which reparses to the identical double.
    @raise Invalid_argument on a NaN or infinite number — JSON cannot
    represent them. *)

val of_string : ?max_depth:int -> string -> (t, string) result
(** Strict parse of exactly one JSON value (surrounding whitespace allowed;
    trailing bytes are an error).  The standard escapes — backslash-quote,
    backslash-backslash, [\/ \b \f \n \r \t \uXXXX] — are decoded ([\u]
    surrogate pairs become UTF-8).  Numbers that overflow the IEEE double
    range (["1e999"]) are an error, so every parsed value re-serializes;
    so is a digit after a leading zero (["01"], RFC 8259).
    [max_depth] (default 512) bounds array/object nesting.  Error messages
    carry the byte offset. *)

(** {1 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an object. *)

val get_str : t -> string option
val get_num : t -> float option
val get_int : t -> int option
(** Integral {!Num} only. *)

val get_bool : t -> bool option
val get_arr : t -> t list option
val get_obj : t -> (string * t) list option

(** {1 Codecs}

    A ['a codec] pairs an encoder with a total decoder, so one declaration
    gives a wire record both directions, e.g.
    [obj (fun app period -> { app; period }) |> mem "app" str (fun r -> r.app)
     |> mem "period" num (fun r -> r.period) |> finish].
    Objects encode their members in declaration order and decode them in
    the same order, ignoring unknown members, so the first bad member
    names the error: [missing field "x"], [field "x" has the wrong type]
    (also when one list element is), or a {!conv} validation's message.
    Build codecs once, at top level: declaring one allocates, using it
    allocates only the values it produces. *)

type 'a codec

val encode : 'a codec -> 'a -> t
val decode : 'a codec -> t -> ('a, string) result

val value : t codec
(** Any value, as is. *)

val num : float codec

val int : int codec
(** Integral numbers of magnitude at most 1e15, as {!get_int}. *)

val str : string codec
val bool : bool codec
val list : 'a codec -> 'a list codec

val conv : ('a -> ('b, string) result) -> ('b -> 'a) -> 'a codec -> 'b codec
(** [conv of_ to_ c]: decode with [c], then validate with [of_]; encode
    through [to_]. *)

type ('r, 'k) obj
(** A record codec under construction; ['k] is what the constructor still
    takes. *)

val obj : 'k -> ('r, 'k) obj
(** Start from the constructor, a function of the members in order. *)

val mem : string -> 'a codec -> ('r -> 'a) -> ('r, 'a -> 'k) obj -> ('r, 'k) obj
(** A required member and its getter. *)

val opt_mem :
  string -> 'a codec -> ('r -> 'a option) -> ('r, 'a option -> 'k) obj ->
  ('r, 'k) obj
(** An optional member: omitted when [None]; absent or [null] reads as
    [None]. *)

val finish : ('r, 'r) obj -> 'r codec

val field : string -> 'a codec -> t -> ('a, string) result
(** A member of an object, decoded — for hand-written decoders. *)

val opt_field : string -> 'a codec -> t -> ('a option, string) result
(** Like {!field}; an absent or [null] member is [Ok None]. *)
