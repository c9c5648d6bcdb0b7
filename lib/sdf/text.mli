(** A line-oriented text format for SDF graphs, so workloads can be saved,
    versioned and exchanged:

    {v
    graph "A"
    actor a0 100
    actor a1 50
    channel a0 -> a1 produce 2 consume 1 tokens 0
    # comments and blank lines are ignored
    v}

    Actor order defines actor ids.  [to_string] and [of_string] round-trip
    exactly (up to float formatting). *)

val to_string : Graph.t -> string

val of_string : string -> (Graph.t, string) result
(** Error messages carry the offending line number. *)

val write_file : string -> Graph.t -> unit

val to_string_many : Graph.t list -> string
(** Several graphs concatenated; each starts at its [graph] line. *)

val of_string_many : string -> (Graph.t list, string) result
(** Splits the input at [graph] lines and parses each section.  Comment and
    blank lines before the first graph are ignored. *)
