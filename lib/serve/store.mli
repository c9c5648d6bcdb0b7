(** Content-addressed workload store.

    A workload's address is the MD5 digest (hex) of its canonical
    {!Exp.Workload.to_string} serialization, so re-uploading the same
    workload — or a textually different payload that parses to the same
    canonical form — lands on the same entry and the same cache keys.
    An entry also holds the workload's {!Contention.Analysis.prepare}
    caches, made once, when its digest is first added.  Thread-safe:
    worker domains share one store. *)

type t

type entry = {
  workload : Exp.Workload.t;
  caches : Contention.Analysis.cache array;  (** One per app, in order. *)
}

val create : unit -> t

val add : t -> Exp.Workload.t -> string
(** Store (or re-reference) the workload; returns its digest.  A new
    digest is prepared outside the store's lock. *)

val find : t -> string -> entry option
val count : t -> int

val digest_of : Exp.Workload.t -> string
(** The address {!add} would file the workload under. *)
