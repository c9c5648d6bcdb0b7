(** The paper's evaluation workload: ten random strongly-connected SDFGs of
    8–10 actors (Section 5), actor [j] of every application mapped on
    processor [j mod procs]. *)

type t = private {
  seed : int;
  procs : int;
  apps : Contention.Analysis.app array;
}

val make :
  ?seed:int ->
  ?num_apps:int ->
  ?procs:int ->
  ?params:Sdfgen.Generator.params ->
  ?spread:float ->
  unit ->
  t
(** Defaults: [seed = 2007] (the paper's year — any seed reproduces a valid
    instance of the experiment), [num_apps = 10], [procs = 10],
    [params = Sdfgen.Generator.default_params].

    [spread] (default [0.], must be in [[0, 1)]) switches the workload to the
    paper's Section 6 variable-execution-time extension: every actor's firing
    time becomes [Uniform [tau*(1-spread), tau*(1+spread)]].  The mean (and
    hence the isolation period) is unchanged; simulations sample per firing
    through {!sim_firing_time}.  {!save} persists only the mean times. *)

val num_apps : t -> int
val names : t -> string array
val isolation_periods : t -> float array

val analysis_apps : t -> Contention.Usecase.t -> Contention.Analysis.app list
(** The applications active in the use-case, ascending by index. *)

val sim_apps : t -> Contention.Usecase.t -> Desim.Engine.app array
(** Same subset as simulator inputs. *)

val sim_firing_time :
  t -> Contention.Usecase.t -> (app:int -> actor:int -> float) option
(** The [firing_time] hook for {!Desim.Engine.run} over {!sim_apps}: [None]
    when no selected application carries execution-time distributions (the
    engine's constant-time default applies), otherwise a sampler drawing from
    each actor's distribution.  The sampler's RNG is seeded from
    [(seed, usecase)], so the stream is a pure function of the use-case —
    independent of the order use-cases are simulated in, and of which domain
    runs them. *)

val app_index : t -> string -> int
(** @raise Not_found for an unknown application name. *)

val to_string : t -> string
(** The workload (graphs plus a [# contention-workload] header carrying seed
    and processor count) in the {!Sdf.Text} format — the canonical
    serialization: also the upload payload and content-digest input of the
    {!Serve} daemon. *)

val of_string : string -> (t, string) result
(** Parse a {!to_string} payload; mappings are reconstructed with the modulo
    policy and isolation periods recomputed.  Total: truncated or otherwise
    malformed payloads yield [Error], never an exception, as do more than
    30 graphs (a use-case mask's width) and two graphs of one name. *)

val save : t -> string -> unit
(** Write {!to_string} to a file. *)

val load : string -> (t, string) result
(** Reload a file written by {!save} via {!of_string}. *)
