(** Protocol fuzzing of the serve daemon.

    The contract under test is the one {!Serve.Protocol} states: malformed
    input of any kind — random bytes, truncated frames, pathologically deep
    JSON, near-valid requests with flipped bytes, valid and malformed
    [trace] envelopes — must come back as an [{"error": ...}] reply (or,
    over a socket, at worst close that one connection), never crash the
    server, never produce an unparseable reply, and never affect the next
    request.  Trace envelopes additionally must never be echoed: a planted
    foreign trace id appearing anywhere in a reply is a violation
    ([wire-trace-echo]), since correlation ids are metadata for the
    caller's own telemetry, not reply material.

    Two layers are fuzzed:
    - {!fuzz_lines} drives {!Serve.Server.handle_line} in process: every
      generated line must yield one syntactically valid JSON reply envelope,
      and a well-formed [ping] afterwards must still succeed;
      {!fuzz_edge_values} sends it edge-value workloads;
    - {!fuzz_sockets} opens real connections and writes junk, truncated
      frames (no trailing newline, then hard close) and over-length lines,
      then proves liveness with a {!Serve.Client} ping.

    Generation is deterministic per seed, so a failing seed replays. *)

type result = {
  requests : int;  (** Fuzz inputs delivered. *)
  violations : Metamorphic.violation list;
}

val passed : result -> bool

val fuzz_line : Sdfgen.Rng.t -> string
(** One adversarial input line (exposed for the unit tests). *)

val fuzz_lines : ?seeds:int -> Serve.Server.t -> result
(** In-process campaign against a running server's {!Serve.Server.handle_line}. *)

val fuzz_edge_values : Serve.Server.t -> result
(** Upload workloads with one execution time of [nan], [inf] or [0], and
    one with every time ×10^6, and estimate each with the paper estimators:
    each upload must be refused, or its estimates must be ok with finite
    periods (["wire-edge-values"]). *)

val fuzz_sockets : ?seeds:int -> host:string -> port:int -> unit -> result
(** Socket-level campaign; [seeds] counts connections (default 32). *)

val run : ?seeds:int -> unit -> result
(** Start a private ephemeral server (2 workers, small frame limit so the
    over-length path is reachable), run both campaigns plus the final
    liveness probe, and stop it — the self-contained entry the CLI and the
    nightly job use. *)
