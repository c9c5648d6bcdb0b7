(** Repetition vectors (paper Definition 2).

    The repetition vector [q] of a consistent SDFG is the smallest positive
    integer vector satisfying the balance equation
    [q.(src) * produce = q.(dst) * consume] for every channel.  One
    {e iteration} of the graph fires each actor [a] exactly [q.(a)] times and
    returns every channel to its initial token count. *)

type error =
  | Inconsistent of Graph.channel
      (** A channel whose balance equation contradicts the rest of the graph. *)
  | Disconnected
      (** The graph has several weakly-connected components; the repetition
          vector is only canonical for connected graphs. *)

val compute : Graph.t -> (int array, error) result
(** Smallest positive repetition vector, indexed by actor id. *)

val compute_exn : Graph.t -> int array
(** @raise Invalid_argument on an inconsistent or disconnected graph. *)

val is_consistent : Graph.t -> bool

val pp_error : Format.formatter -> error -> unit
