(** Begin/end spans recorded into per-domain lock-free buffers.

    Instrumentation sites call {!with_}; when tracing is disabled (the
    default) the only cost is one atomic load, so spans can live on hot
    paths and inside {!Exp.Pool} workers.  When enabled, each span is a
    single allocation pushed onto the calling domain's private buffer with
    a compare-and-set — no lock is ever taken on the recording path, so
    domains never contend with each other or with a collector.

    Spans carry W3C-style identifiers ([trace_id]/[span_id]/[parent_id],
    [0L] meaning "none") assigned from the ambient trace {!ctx}, which
    rides a per-{e thread} store: a process boundary (the serve wire
    protocol) re-establishes the context on the other side with
    {!with_context}, so one request's spans link up across client, shard,
    failover peer and replication writer.

    Buffers grow without bound while tracing is enabled; tracing is meant
    to be switched on around a bounded run (a sweep, a benchmark section)
    and drained into a trace file afterwards. *)

type t = {
  name : string;  (** Span name, e.g. ["sweep.simulate"]. *)
  args : (string * string) list;  (** Free-form key/value annotations. *)
  ts_ns : int64;  (** Start, {!Clock.now_ns} epoch. *)
  dur_ns : int64;  (** Duration; [>= 0]. *)
  domain : int;  (** Recording domain's id — one trace track per domain. *)
  trace_id : int64;  (** Request trace this span belongs to; [0L] = none. *)
  span_id : int64;  (** This span's own id; [0L] = no ambient context. *)
  parent_id : int64;  (** Parent span (possibly remote); [0L] = root. *)
}

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Globally enable/disable recording.  Spans already in flight when the
    flag flips record (or not) according to the flag at their start. *)

val with_ : ?args:(unit -> (string * string) list) -> name:string -> (unit -> 'a) -> 'a
(** [with_ ~name f] runs [f ()]; when tracing is enabled, records a span
    covering the call (also when [f] raises — the exception is re-raised).
    [args] is a thunk so annotation strings are only built when tracing is
    on.  When an ambient {!ctx} is set, the span gets a fresh [span_id],
    inherits the context's trace id, parents onto the context, and becomes
    the parent of spans started inside [f]. *)

val collect : unit -> t list
(** Snapshot of all spans recorded so far, across every domain that ever
    recorded, sorted by [(ts_ns, domain, name)].  Does not clear. *)

val drain : unit -> t list
(** {!collect}, then empty every buffer. *)

val reset : unit -> unit
(** Empty every buffer and disable recording. *)

(** {1 Trace context} *)

type ctx = {
  trace_id : int64;  (** Never [0L]. *)
  parent_span : int64;  (** Span new children parent onto; [0L] = root. *)
  sampled : bool;
      (** Head-based sampling decision, made once where the trace starts
          and carried to every hop — the request journal records exactly
          the sampled requests on every shard they touch. *)
}
(** The ambient trace context, independent of whether span {e recording}
    is enabled: context propagation (and with it journal sampling) works
    with tracing off, at the cost of a hash-table read per hop. *)

val new_trace : ?sampled:bool -> unit -> ctx
(** Fresh root context with a process-unique nonzero trace id.  [sampled]
    defaults to [true]. *)

val next_id : unit -> int64
(** A fresh nonzero span id (the generator behind {!new_trace}). *)

val current_context : unit -> ctx option
(** The calling {e thread}'s ambient context, if any. *)

val with_context : ctx -> (unit -> 'a) -> 'a
(** Run with the ambient context set for the calling thread; restores the
    previous context (also on exceptions).  Contexts are per systhread, so
    concurrent workers in one domain do not see each other's context. *)

val id_to_hex : int64 -> string
(** 16 lowercase hex characters, the wire rendering of an id. *)

val id_of_hex : string -> int64 option
(** Inverse of {!id_to_hex}: exactly 16 hex characters, else [None]. *)
