(** A bounded least-recently-used cache, thread-safe.

    The daemon keys it by [(workload digest, use-case mask, estimator name)]
    so a repeated estimate is an O(1) table lookup instead of an analysis
    run.  It counts nothing: the server counts hits and misses in its
    metric registry, which the [stats] command reads. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument if [capacity < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes the entry to most-recently-used. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or refresh; evicts the least-recently-used entry when full. *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int
