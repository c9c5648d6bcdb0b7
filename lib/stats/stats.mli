(** Descriptive statistics for the evaluation harness. *)

val mean : float list -> float
(** @raise Invalid_argument on an empty list. *)

val mean_arr : float array -> float

val stddev : float list -> float
(** Population standard deviation.  @raise Invalid_argument on empty. *)

val minimum : float list -> float
val maximum : float list -> float

val percentile : float -> float list -> float
(** [percentile q xs] with [q] in [\[0,100\]], linear interpolation.
    @raise Invalid_argument on empty list or out-of-range [q]. *)

val percentile_sorted : float -> float array -> float
(** {!percentile} over an array already sorted in ascending order, so
    several percentiles of one sample pay for one sort. *)

val abs_pct_error : reference:float -> float -> float
(** [100 * |estimate - reference| / reference] — the paper's inaccuracy
    metric ("mean absolute difference ... in percent").
    @raise Invalid_argument if [reference] is zero. *)

type accumulator
(** Streaming mean/min/max/count accumulator. *)

val accumulator : unit -> accumulator
val add : accumulator -> float -> unit
val count : accumulator -> int
val acc_mean : accumulator -> float
(** @raise Invalid_argument when nothing was added. *)

val acc_max : accumulator -> float
val acc_min : accumulator -> float
