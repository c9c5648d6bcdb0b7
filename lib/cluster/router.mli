(** Client-side shard router: consistent-hash placement over a static peer
    list, one connection {!Pool} per shard.

    Placement is by workload content digest, so every client agrees on the
    owning shard with no coordination and a workload's estimate cache warms
    exactly one shard.  Uploads are the exception: they are {e broadcast}
    (content-addressed, so replays are idempotent and cheap), which keeps
    every peer able to serve any digest after a failover.

    Routed requests distinguish three outcomes: the decoded reply, a shed
    verdict (the shard's bounded accept queue was full — the caller should
    back off; the router never retries a shed, an open-loop caller must not
    amplify load), or a failure.  On a {e transport} failure the router
    fails over once to the next peer in ring order — the peer that
    hot-entry replication (see {!forward_hot}) has been warming. *)

type t

type 'a outcome =
  | Served of 'a
  | Shed of { queue_depth : int }  (** Back off; do not immediately retry. *)
  | Failed of string

val create :
  ?replicas:int ->
  ?pool_size:int ->
  ?timeout:float ->
  Endpoint.t list ->
  t
(** [replicas] is the ring's virtual-node count per peer; [pool_size] and
    [timeout] configure each shard's {!Pool}.
    @raise Invalid_argument on an empty or duplicate peer list. *)

val endpoints : t -> Endpoint.t list
val ring : t -> Ring.t

val upload : t -> payload:string -> (Serve.Protocol.upload_reply, string) result
(** Broadcast to every peer; [Ok] only if every peer accepted (the reply is
    the owner shard's).  A partial upload would leave failover broken, so
    any refusal is an error naming the peer. *)

val estimate_routed :
  t ->
  digest:string ->
  ?usecase:string list ->
  estimator:Contention.Analysis.estimator ->
  unit ->
  Serve.Protocol.estimate_reply outcome * string
(** An estimate routed by digest, with the shard that actually answered
    (the failover peer when the primary failed at the transport level; [""]
    only when there are no peers) — the load generator's per-shard
    breakdown keys on it.  It runs under a [router.estimate] span and
    stamps the caller's trace context into the wire envelope, so the
    shard's serve span nests under the router's in a merged trace. *)

val forward_hot :
  t -> self:Endpoint.t option -> Serve.Server.hot_entry -> unit
(** Replicate a hot estimate-cache entry to the digest's first failover
    peer (the successor on the ring, skipping [self]) with a [cache-put].
    Fire-and-forget on a detached thread over a fresh, immediately-closed
    connection: the serving worker never blocks on a busy peer, no peer
    worker gets pinned by an idle pooled connection, and failures only
    bump {!forward_counts} — replication is an optimisation, not a
    dependency.  This is what a serving binary passes to
    {!Serve.Server.start} as [on_hot], closing the loop the server itself
    cannot (the cluster layer sits above {!Serve}). *)

val forward_counts : t -> int * int
(** [(succeeded, failed)] hot-entry forwards completed so far. *)

val stats_all :
  t -> (Endpoint.t * (Serve.Protocol.stats_reply, string) result) list

val metrics_all :
  t -> (Endpoint.t * (Serve.Protocol.metrics_reply, string) result) list
(** Every peer's Prometheus exposition — the raw material for
    {!Promerge.merge}'s cluster-wide, shard-labelled view. *)

val close : t -> unit
