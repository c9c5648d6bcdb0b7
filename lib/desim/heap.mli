(** Mutable binary min-heap keyed by [(time, sequence)].

    The sequence number makes extraction deterministic and FIFO among events
    scheduled for the same instant — essential for a reproducible simulator. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Insert with an automatically increasing sequence number. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event; among equal times, the one pushed
    first. *)

val peek_time : 'a t -> float option
