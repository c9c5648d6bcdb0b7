(** Synchronous Data Flow graphs (Lee & Messerschmitt, 1987).

    An SDFG is a directed multigraph whose vertices ({e actors}) represent
    tasks and whose edges ({e channels}) carry FIFO token streams.  When an
    actor fires it consumes a fixed number of tokens from every incoming
    channel and, after its execution time elapses, produces a fixed number on
    every outgoing channel.  Channels may hold initial tokens, which model
    pipelining and break cyclic dependencies. *)

type actor = private {
  id : int;  (** Index into the graph's actor array. *)
  name : string;
  exec_time : float;  (** Time to complete one firing (paper's τ(a)); > 0. *)
}

type channel = private {
  src : int;  (** Producing actor id. *)
  dst : int;  (** Consuming actor id. *)
  produce : int;  (** Tokens produced per firing of [src]; ≥ 1. *)
  consume : int;  (** Tokens consumed per firing of [dst]; ≥ 1. *)
  tokens : int;  (** Initial tokens; ≥ 0. *)
}

type t = private {
  name : string;
  actors : actor array;
  channels : channel array;
}

val create :
  name:string ->
  actors:(string * float) array ->
  channels:(int * int * int * int * int) array ->
  t
(** [create ~name ~actors ~channels] builds a graph.  [actors.(i)] is
    [(name, exec_time)] for actor id [i]; each channel is
    [(src, dst, produce, consume, initial_tokens)].
    @raise Invalid_argument on out-of-range actor ids, execution times that
    are not finite and positive, non-positive rates, or negative initial
    token counts. *)

val num_actors : t -> int
val num_channels : t -> int

val actor : t -> int -> actor
(** @raise Invalid_argument on an out-of-range id. *)

val exec_times : t -> float array
(** Fresh array of per-actor execution times, indexed by actor id. *)

val with_exec_times : t -> float array -> t
(** [with_exec_times g times] is [g] with every actor's execution time
    replaced — used to turn response times into a new graph for throughput
    analysis.  @raise Invalid_argument on a length mismatch or a time that
    is not finite and positive. *)

val is_strongly_connected : t -> bool

val pp : Format.formatter -> t -> unit
val equal_structure : t -> t -> bool
(** Same actors (names, times) and same channel list (order-sensitive). *)
