(** Sampled request journal: per-request JSONL records on disk.

    Where metrics aggregate, the journal itemises: each line is one served
    request with its trace id, command, workload digest, shard, queue
    depth at accept, cache outcome, admission verdict and latency — enough
    to reconstruct what one request experienced, and to join it against a
    merged trace by trace id.

    Sampling is head-based.  A request carrying a trace context journals
    iff the context's [sampled] bit is set — that bit was decided once
    where the trace started, so one request is journalled on {e every}
    shard it touches or on none, and cross-shard joins never dangle.
    Context-free requests fall back to a local 1-in-[sample_every]
    counter.

    The file is size-rotated: when it exceeds [max_bytes] it is renamed to
    [path ^ ".1"] (replacing any previous rotation) and a fresh file is
    started, bounding disk use to roughly twice [max_bytes].

    Thread-safe; writes are line-atomic under an internal mutex. *)

type t

val create :
  ?sample_every:int -> ?max_bytes:int -> ?shard:string -> string -> t
(** Opens [path] for append (creating it if needed).  [sample_every]
    defaults to 16 (clamped to [>= 1]); [max_bytes] defaults to 8 MiB,
    [<= 0] disables rotation; [shard] labels every record.
    @raise Sys_error when the path cannot be opened. *)

val sampled : t -> ctx:Obs.Span.ctx option -> bool
(** Whether this request should be journalled (see sampling rules above).
    Call once per request and reuse the answer. *)

val record :
  t ->
  ctx:Obs.Span.ctx option ->
  cmd:string ->
  ?workload:string ->
  (string * Json.t) list ->
  unit
(** Append one record as a single line, flush, rotate if over budget.  The
    record is an object whose keys are, in order: [ts] (wall-clock
    seconds), [trace] (the context's trace id, when [ctx] is given), [cmd],
    [workload], [shard] (when set at {!create}), then the given fields. *)

val written : t -> int
(** Lines written since {!create} (not reset by rotation). *)

val close : t -> unit
(** Flush and close.  Further {!record} calls raise. *)
