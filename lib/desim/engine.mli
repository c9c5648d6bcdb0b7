(** Discrete-event simulation of multiple SDF applications sharing
    processors — the reference ("measured") performance the paper compares
    its estimates against (their setup used POOSL).

    Semantics, as stated in the paper:
    - every actor is statically mapped on one processor;
    - processors are non-preemptive: a firing runs to completion;
    - arbitration is first-come-first-served among enabled firings, with no
      imposed static order;
    - an actor has at most one outstanding firing (no auto-concurrency) and
      joins its processor's queue the moment it becomes enabled.

    Because SDF enabledness is monotone (only an actor itself consumes from
    its input channels), contention delays firings but can never deadlock a
    set of individually live graphs. *)

type app = Appstate.app = {
  graph : Sdf.Graph.t;
  mapping : int array;  (** [mapping.(actor_id)] is the processor id. *)
}

type arbitration =
  | Fcfs
      (** First-come-first-served — the paper's setting: no imposed order,
          every actor executes "with least contention on their own". *)
  | Fixed_priority
      (** Non-preemptive static priority: among queued firings the lowest
          application index wins (ties broken by actor id).  Useful to study
          how unfair arbitration skews periods versus the FCFS model the
          analysis assumes. *)
  | Static_order of (int * int) array array
      (** [orders.(proc)] is a cyclic sequence of [(app, actor)] entries; the
          processor serves exactly that sequence, idling until the next
          scheduled firing becomes ready.  This is the arbitration the
          paper's related work ([2]) models — and, as the paper argues, it
          couples independent applications: a stalled entry blocks everyone
          mapped behind it.  A processor with an empty order serves nothing.
          @raise Invalid_argument (from {!run}) if an entry names an unknown
          application or actor, or an actor mapped elsewhere. *)

type event =
  | Start of { time : float; app : int; actor : int; proc : int }
  | Finish of { time : float; app : int; actor : int; proc : int }

type result = Appstate.result = {
  app_name : string;
  iterations : int;  (** Completed graph iterations within the horizon. *)
  avg_period : float;
      (** Mean time per iteration after warm-up; [nan] if fewer than two
          iterations completed after warm-up. *)
  max_period : float;  (** Worst observed inter-iteration gap ([nan] likewise). *)
  min_period : float;
  busy_time : float array;
      (** Per-processor total busy time attributable to this app. *)
}

type stats = {
  final_time : float;  (** Simulated time at which the run stopped. *)
  total_firings : int;
      (** Firings completed within the horizon, extrapolated ones included. *)
  extrapolated_firings : int;
      (** The part of [total_firings] that the steady-state fast-forward
          counted instead of simulating; 0 when it did not engage. *)
  proc_busy : float array;  (** Per-processor total busy time (all apps). *)
}

val run :
  ?horizon:float ->
  ?warmup_iterations:int ->
  ?on_event:(event -> unit) ->
  ?firing_time:(app:int -> actor:int -> float) ->
  ?arbitration:arbitration ->
  procs:int ->
  app array ->
  result array * stats
(** [run ~procs apps] simulates until [horizon] (default [500_000.], the
    paper's setting).  [warmup_iterations] (default [20]) initial iterations
    of each app are excluded from the period statistics to remove the
    transient.

    [firing_time] overrides the duration of each firing as it starts
    (arguments are the application index and actor id); the default uses the
    graph's static execution time.  This is the hook for stochastic
    execution times, time-varying behaviour or fault injection — the value
    must be finite and positive.

    {b Steady-state fast-forward.}  With constant execution times the
    contended execution is a deterministic finite-state system, so after a
    transient it repeats with some period.  [run] skips the repetitions,
    and the results are bit-identical to simulating every firing.  It does
    so exactly when neither [on_event] nor [firing_time] is given, every
    execution time is an integer and [horizon] plus the largest execution
    time is below 2{^53}: then every event time and busy sum is an exact
    float.  Once every application is past its warm-up, the state relative
    to the clock is hashed at each iteration boundary of application 0.  A
    repeated hash names a candidate period, which is simulated once more;
    only if the full state then matches exactly are whole periods skipped.
    At least one period before the horizon is left to simulate, so every
    gap across a period boundary still reaches [max_period] and
    [min_period].  Iteration, busy and firing counts grow by the skipped
    periods' share, and {!stats.extrapolated_firings} reports the firings
    skipped.  The extra memory is one state copy plus one hash and time per
    iteration of application 0 (at most 2{^16} of them; the table restarts
    when full), freed when [run] returns.  Passing [on_event] turns it off,
    since every firing then has to be reported.
    @raise Invalid_argument on an invalid mapping, an empty application set,
    a [horizon] that is not finite and positive, or a [firing_time] result
    that is not. *)

val utilisation : stats -> float array
(** Per-processor busy fraction of the simulated time. *)
