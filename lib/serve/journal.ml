(* Sampled request journal: one JSON object per line, size-rotated.

   The journal answers "what exactly happened to request X" after the
   fact, where metrics only say how many.  It is sampled so a loaded
   server does not turn its disk into the bottleneck: the decision is
   head-based — a request carrying a trace context uses the context's
   [sampled] bit (decided once, at the edge, and carried to every shard
   the request touches, so a sampled request journals everywhere or
   nowhere), and a context-free request falls back to a local
   1-in-[sample_every] counter. *)

type t = {
  path : string;
  sample_every : int;
  max_bytes : int;
  shard : string option;
  mutex : Mutex.t;
  mutable oc : out_channel;
  mutable written : int; (* lines written since open/create *)
  mutable seq : int; (* context-free requests seen, for fallback sampling *)
}

let create ?(sample_every = 16) ?(max_bytes = 8 * 1024 * 1024) ?shard path =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path
  in
  {
    path;
    sample_every = (if sample_every < 1 then 1 else sample_every);
    max_bytes;
    shard;
    mutex = Mutex.create ();
    oc;
    written = 0;
    seq = 0;
  }

let sampled t ~ctx =
  match (ctx : Obs.Span.ctx option) with
  | Some c -> c.sampled
  | None ->
      Mutex.lock t.mutex;
      let n = t.seq in
      t.seq <- n + 1;
      Mutex.unlock t.mutex;
      n mod t.sample_every = 0

(* Rotation keeps exactly one predecessor: path -> path.1.  Two files
   bound the disk to ~2 * max_bytes, and the pair is enough to reconstruct
   a recent incident. *)
let rotate_locked t =
  close_out t.oc;
  (try Sys.rename t.path (t.path ^ ".1") with Sys_error _ -> ());
  t.oc <- open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 t.path

let record t ~ctx ~cmd ?workload fields =
  let opt name conv = Option.fold ~none:[] ~some:(fun v -> [ (name, conv v) ]) in
  let line =
    Json.to_string
      (Json.Obj
         ([ ("ts", Json.Num (Unix.gettimeofday ())) ]
         @ opt "trace"
             (fun (c : Obs.Span.ctx) -> Json.Str (Obs.Span.id_to_hex c.trace_id))
             ctx
         @ [ ("cmd", Json.Str cmd) ]
         @ opt "workload" (fun d -> Json.Str d) workload
         @ opt "shard" (fun s -> Json.Str s) t.shard
         @ fields))
  in
  Mutex.lock t.mutex;
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  t.written <- t.written + 1;
  if t.max_bytes > 0 && pos_out t.oc > t.max_bytes then rotate_locked t;
  Mutex.unlock t.mutex

let written t =
  Mutex.lock t.mutex;
  let n = t.written in
  Mutex.unlock t.mutex;
  n

let close t =
  Mutex.lock t.mutex;
  (try close_out t.oc with Sys_error _ -> ());
  Mutex.unlock t.mutex
