(** Deterministic, splittable pseudo-random number generator (SplitMix64).

    The whole evaluation pipeline must be reproducible from a single seed —
    graphs, rates, execution times and simulation tie-breaks all draw from
    explicitly threaded generator states rather than global mutable state. *)

type t

val create : int -> t
(** Generator seeded with the given integer. *)

val split : t -> t
(** An independent generator derived from (and advancing) [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element.  @raise Invalid_argument on an empty array. *)
