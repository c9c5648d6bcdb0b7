(** Use-cases: subsets of applications running concurrently (the paper's
    definition in Section 1).  Encoded as bit masks over application
    indices, so [n] applications induce [2^n - 1] non-empty use-cases. *)

type t = int
(** Bit [i] set means application [i] is active. *)

val of_list : int list -> t
(** @raise Invalid_argument on a negative or out-of-word index. *)

val to_list : t -> int list
(** Active application indices, ascending. *)

val cardinal : t -> int
val mem : int -> t -> bool
val add : int -> t -> t

val all : napps:int -> t list
(** Every non-empty use-case, ascending as integers ([2^napps - 1] of them).
    @raise Invalid_argument if [napps] is negative or ≥ 30. *)

val full : napps:int -> t
(** All applications active — the maximum-contention case of Figure 5. *)

val pp : napps:int -> Format.formatter -> t -> unit
(** Prints e.g. ["{A,C,D}"] using letter names, matching the paper's
    application naming. *)
