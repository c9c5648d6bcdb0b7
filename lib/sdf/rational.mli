(** Exact rational arithmetic over native integers.

    Used by the repetition-vector solver and the exact period computation,
    where floating point would accumulate error and break the balance
    equations.  Values are kept in normal form: the denominator is positive
    and [gcd num den = 1]. *)

type t = private { num : int; den : int }

val make : int -> int -> t
(** [make num den] is the normalised rational [num/den].
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val one : t

val mul : t -> t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val equal : t -> t -> bool

val to_float : t -> float

val to_int_exn : t -> int
(** @raise Invalid_argument if the value is not an integer. *)

val gcd : int -> int -> int
(** Greatest common divisor of the absolute values; [gcd 0 0 = 0]. *)

val lcm : int -> int -> int

val to_string : t -> string
