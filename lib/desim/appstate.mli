(** The compiled state of a multi-application simulation, shared by the
    simulation engines ({!Engine} and {!Preemptive}).

    {!compile} flattens every application into one set of int and float
    arrays.  Actors get global ids: actor [i] of application [a] is
    [first.(a) + i], so ids order by (application, actor).  Channels are
    numbered the same way, and each actor's input and output channels are
    rows of a compressed (CSR) edge array.  The state holds no list, tuple
    or option, so an engine fires without allocating.

    The dynamic part of the state is everything the future of a
    non-preemptive run depends on: token counts, actor status, the reference
    actor's firing phase, one ring queue and at most one pending completion
    per processor, and the static-order positions.  {!hash}, {!copy},
    {!same_state} and {!advance} compare and shift it relative to the
    clock; {!Engine} builds its steady-state fast-forward on them.
    {!Preemptive} keeps its TDMA wheel state itself and uses only the
    dataflow part and the statistics. *)

type app = {
  graph : Sdf.Graph.t;
  mapping : int array;  (** [mapping.(actor_id)] is the processor id. *)
}

type result = {
  app_name : string;
  iterations : int;
  avg_period : float;
  max_period : float;
  min_period : float;
  busy_time : float array;
}

type clock = { mutable now : float }
(** The simulated time.  A record of floats only is stored unboxed, so
    setting it does not allocate. *)

val idle : int
val queued : int
val running : int
(** Actor status values.  {!Preemptive} uses only [idle] and not [idle]. *)

type t = {
  procs : int;
  apps : app array;
  first : int array;
      (** Global id of each application's actor 0; [first.(napps)] is the
          actor count. *)
  app_of : int array;  (** Application of each global actor. *)
  proc_of : int array;
  exec_time : float array;
  in_first : int array;
      (** Actor [g]'s input edges are [in_first.(g) .. in_first.(g+1) - 1]
          of [in_chan] (global channel) and [in_rate] (consumption). *)
  in_chan : int array;
  in_rate : int array;
  out_first : int array;  (** Output edges likewise, in channel order. *)
  out_chan : int array;
  out_rate : int array;
  out_dst : int array;  (** Consumer of each output edge. *)
  q0 : int array;  (** Repetition entry of each application's actor 0. *)
  clock : clock;
  tokens : int array;  (** Per global channel. *)
  status : int array;  (** [idle], [queued] or [running], per actor. *)
  phase0 : int array;
      (** Completed firings of each application's actor 0, modulo [q0]. *)
  qfirst : int array;
      (** Processor [p]'s ring is [queue.(qfirst.(p) .. qfirst.(p+1) - 1)]:
          one slot per actor mapped on [p], as an actor is queued at most
          once. *)
  queue : int array;
  qhead : int array;
  qlen : int array;
  run_actor : int array;  (** Actor running on each processor, or [-1]. *)
  run_end : float array;  (** Its completion time; [infinity] when idle. *)
  run_seq : int array;
      (** Its start sequence number: completions at equal times pop in
          start order. *)
  mutable next_seq : int;
  order_pos : int array;  (** Static-order position per processor. *)
  iterations : int array;  (** Per application, as in {!result}. *)
  kept_count : int array;  (** Iterations counted after warm-up. *)
  kept_first : float array;
  last_completion : float array;
  max_gap : float array;
  min_gap : float array;
  busy : float array;  (** [busy.(a * procs + p)]: app [a]'s time on [p]. *)
  proc_busy : float array;
  mutable firings : int;  (** Completed firings, extrapolated ones included. *)
  mutable extrapolated : int;  (** Firings counted by {!advance}. *)
}

val compile : procs:int -> app array -> t
(** Validate and flatten the applications; every actor idle, the clock at
    0.
    @raise Invalid_argument on an empty application set, [procs < 1], a
    mapping of the wrong length or one that targets a processor outside
    [\[0, procs)], or an inconsistent graph. *)

val check_horizon : string -> float -> unit
(** [check_horizon who h]
    @raise Invalid_argument naming [who] unless [h] is finite and positive:
    a run stops at the first event past its horizon. *)

val enabled : t -> int -> bool
(** The actor is idle and every input channel holds enough tokens. *)

val consume : t -> int -> unit
(** Remove the actor's consumption from its input channels. *)

val complete : t -> warmup:int -> ready:(int -> unit) -> int -> unit
(** Finish the actor's firing at the clock's time: produce its output
    tokens, mark it idle, count the firing and, when the application's
    actor 0 completes its [q0]-th firing, record an iteration boundary
    (the first [warmup] iterations are left out of the period statistics).
    Then call [ready] on the actor itself and on each consumer of its
    output channels, in channel order, that is enabled now. *)

(** {1 Processor queues and pending completions}

    The engine starts a firing by setting [run_actor], [run_end] and
    [run_seq] (from [next_seq]) itself, so the duration never crosses a
    function boundary as a boxed float; it ends one by setting [run_actor]
    to [-1] and [run_end] to [infinity]. *)

val enqueue : t -> int -> unit
(** Mark the actor queued and append it to its processor's ring. *)

val queued_at : t -> int -> int -> int
(** [queued_at st p k] is the [k]-th actor in [p]'s queue from its head. *)

val take : t -> int -> int -> int
(** [take st p k] removes and returns the [k]-th queued actor of [p],
    keeping the arrival order of the rest. *)

val next_completion : t -> int
(** The processor whose completion is earliest by (time, sequence), or
    [-1] when no processor runs. *)

val due_now : t -> bool
(** Whether some processor completes at the clock's time. *)

(** {1 Relative state}

    The dynamic state relative to the clock: pending completions count by
    their remaining time and by their rank in start order, not by absolute
    time or sequence number. *)

val hash : t -> int
(** A hash of the relative state.  Remaining times enter as integers, so it
    is meant for runs with integral execution times. *)

val copy : t -> t
(** A copy of the dynamic state and statistics; the compiled topology is
    shared. *)

val same_state : t -> t -> bool
(** Whether two states of the same compilation are equal relative to their
    clocks. *)

val advance : t -> from:t -> periods:int -> unit
(** [advance st ~from ~periods:k], where [from] is a copy of [st] taken one
    period [d = st.clock.now -. from.clock.now] earlier and
    [same_state st from] holds: move [st] to where [k] more periods would
    take it.  The clock and pending completions shift by [k * d]; each
    application's iteration, kept-iteration and busy counts, and the firing
    count, grow by [k] times their change over the period; the last
    completion of each application that completed an iteration in the
    period shifts by [k * d].  Exact when every time and busy sum involved
    is an integer below 2{^53}. *)

val results : t -> result array
