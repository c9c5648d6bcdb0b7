module Protocol = Serve.Protocol

type t = {
  ring : Ring.t;
  endpoints : (string * Endpoint.t) list;  (* keyed by rendered endpoint *)
  pools : (string * Pool.t) list;
  timeout : float option;
  forward_mutex : Mutex.t;
  mutable forwarded : int;
  mutable forward_failures : int;
}

type 'a outcome =
  | Served of 'a
  | Shed of { queue_depth : int }
  | Failed of string

let create ?replicas ?pool_size ?timeout endpoints =
  let names = List.map Endpoint.to_string endpoints in
  let ring = Ring.create ?replicas names in
  {
    ring;
    endpoints = List.combine names endpoints;
    pools =
      List.map
        (fun e -> (Endpoint.to_string e, Pool.create ?size:pool_size ?timeout e))
        endpoints;
    timeout;
    forward_mutex = Mutex.create ();
    forwarded = 0;
    forward_failures = 0;
  }

let endpoints t = List.map snd t.endpoints
let ring t = t.ring
let pool_of t name = List.assoc name t.pools

let is_transport_error msg =
  String.length msg >= 10 && String.sub msg 0 10 = "transport:"

(* One classified round-trip on a shard's pool.  A shed frame is the last
   thing the server sends before closing, so the connection is discarded
   along with any transport casualty; only a served reply (ok or error
   payload) leaves the connection reusable. *)
let request_on pool json decode =
  match Pool.checkout pool with
  | Error msg -> Failed msg
  | Ok c -> (
      match Serve.Client.request_classified c json with
      | Error msg ->
          Pool.discard pool c;
          Failed msg
      | Ok (Protocol.Reply_shed { queue_depth }) ->
          Pool.discard pool c;
          Shed { queue_depth }
      | Ok (Protocol.Reply_error msg) ->
          Pool.checkin pool c;
          Failed msg
      | Ok (Protocol.Reply_ok payload) -> (
          Pool.checkin pool c;
          match decode payload with
          | Ok v -> Served v
          | Error e -> Failed ("bad reply payload: " ^ e))
      | exception e ->
          Pool.discard pool c;
          raise e)

(* Route by digest; on a transport failure, one failover hop to the next
   peer in ring order.  Sheds and protocol errors are never retried: a shed
   is the shard telling us to back off, and an error reply will not improve
   on a different shard.  Also returns which shard actually answered (the
   failover peer on a retried transport failure) so callers can attribute
   the outcome per shard. *)
let routed t ~digest json decode =
  match Ring.successors t.ring digest with
  | [] -> (Failed "cluster: no peers", "")
  | primary :: rest -> (
      match request_on (pool_of t primary) json decode with
      | Failed msg when is_transport_error msg -> (
          match rest with
          | [] -> (Failed msg, primary)
          | next :: _ -> (request_on (pool_of t next) json decode, next))
      | v -> (v, primary))

(* The routed call opens a router-side span and builds the request envelope
   inside it, so the trace context the wire carries names the router span
   as parent — the server's serve.<cmd> span nests under it, and with
   tracing disabled the only cost is the ambient-context read. *)
let estimate_routed t ~digest ?usecase ~estimator () =
  Obs.Span.with_ ~name:"router.estimate"
    ~args:(fun () -> [ ("digest", digest) ])
    (fun () ->
      routed t ~digest
        (Protocol.request_to_json
           ?trace:(Obs.Span.current_context ())
           (Protocol.Estimate { digest; usecase; estimator }))
        Protocol.estimate_reply_of_json)

let on_all t f =
  List.map
    (fun (name, e) -> (e, f (pool_of t name)))
    t.endpoints

let ( let* ) = Result.bind

let upload t ~payload =
  let results =
    (* One span covers the whole broadcast; each per-peer upload inherits
       the ambient context through {!Serve.Client.typed}. *)
    Obs.Span.with_ ~name:"router.upload" (fun () ->
        on_all t (fun pool ->
            Pool.with_client pool (fun c -> Serve.Client.upload c ~payload)))
  in
  let* () =
    List.fold_left
      (fun acc (e, r) ->
        let* () = acc in
        match r with
        | Ok _ -> Ok ()
        | Error msg ->
            Error
              (Printf.sprintf "upload to %s failed: %s" (Endpoint.to_string e)
                 msg))
      (Ok ()) results
  in
  match results with
  | (_, Ok reply) :: _ -> Ok reply
  | _ -> Error "cluster: no peers"

let stats_all t =
  on_all t (fun pool -> Pool.with_client pool Serve.Client.stats)

let metrics_all t =
  on_all t (fun pool -> Pool.with_client pool Serve.Client.metrics)

(* Forwarding happens on a detached thread over a fresh connection, not via
   the pools: the caller is a worker domain mid-request (it must not block
   on a busy peer), and a pooled connection would pin one of the peer's
   worker domains for as long as it stays idle in the pool.  At most one
   forward per cache key ever fires, so the dial cost is irrelevant. *)
let forward_hot t ~self (entry : Serve.Server.hot_entry) =
  let self_name = Option.map Endpoint.to_string self in
  let target =
    List.find_opt
      (fun peer -> Some peer <> self_name)
      (Ring.successors t.ring entry.hot_digest)
  in
  match target with
  | None -> ()
  | Some peer ->
      let endpoint = List.assoc peer t.endpoints in
      (* The detached thread starts with a blank ambient context, so the
         request that made the entry hot hands its context over explicitly —
         the replication write then shares that request's trace id and shows
         up in the merged timeline as part of the same request. *)
      let ctx = Obs.Span.current_context () in
      let thread () =
        let replicate () =
          Obs.Span.with_ ~name:"router.cache_put"
            ~args:(fun () ->
              [ ("digest", entry.hot_digest); ("peer", peer) ])
            (fun () ->
              match Endpoint.connect ?timeout:t.timeout endpoint with
              | Error _ as e -> e
              | Ok c ->
                  Fun.protect
                    ~finally:(fun () -> Serve.Client.close c)
                    (fun () ->
                      Serve.Client.cache_put c ~digest:entry.hot_digest
                        ~mask:entry.hot_mask ~estimator:entry.hot_estimator
                        ~rows:entry.hot_rows))
        in
        let result =
          match ctx with
          | None -> replicate ()
          | Some c -> Obs.Span.with_context c replicate
        in
        Mutex.lock t.forward_mutex;
        (match result with
        | Ok () -> t.forwarded <- t.forwarded + 1
        | Error _ -> t.forward_failures <- t.forward_failures + 1);
        Mutex.unlock t.forward_mutex
      in
      ignore (Thread.create thread () : Thread.t)

let forward_counts t =
  Mutex.lock t.forward_mutex;
  let v = (t.forwarded, t.forward_failures) in
  Mutex.unlock t.forward_mutex;
  v

let close t = List.iter (fun (_, pool) -> Pool.close pool) t.pools
