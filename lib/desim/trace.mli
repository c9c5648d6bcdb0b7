(** Trace recording on top of {!Engine}: collect the event stream of a run
    and derive per-actor service statistics — measured waiting times, busy
    intervals and queue behaviour.  This is how the simulator's view of
    contention is compared against the analytical waiting times. *)

type record = {
  app : int;
  actor : int;
  proc : int;
  start_time : float;
  finish_time : float;
}

type t

val create : unit -> t

val on_event : t -> Engine.event -> unit
(** Feed to {!Engine.run}'s [on_event]; pairs [Start]/[Finish] events into
    {!record}s. *)

val records : t -> record list
(** Completed firings in finish order. *)

val num_records : t -> int

type service_stats = {
  firings : int;
  total_busy : float;
  mean_service : float;  (** Mean observed firing duration. *)
  mean_gap : float;
      (** Mean idle gap between consecutive services of this actor — [nan]
          with fewer than two firings. *)
}

val actor_stats : t -> app:int -> actor:int -> service_stats
(** @raise Not_found if the actor never completed a firing. *)

val proc_timeline : t -> proc:int -> record list
(** Firings executed on a processor, ordered by start time. *)

val static_order :
  t -> procs:int -> window:float * float -> (int * int) array array
(** The per-processor service order observed in the time window
    [\[from, until)]: the raw material for an {!Engine.Static_order}
    arbitration derived from a free-running (FCFS) execution.  Entries are
    [(app, actor)] in start-time order.
    @raise Invalid_argument if the window is empty. *)
