(** Worst-case-response-time baseline (Hoes 2004 — the paper's reference [6]).

    On a non-preemptive node arbitrated round-robin, an arriving firing can
    in the worst case find every co-mapped actor ahead of it, each executing
    once in full: [twait(a) = sum over other actors b of tau(b)].  This is
    the "Analyzed Worst Case" the paper compares against — sound for
    hard-real-time use, but increasingly pessimistic as actors are added,
    which is exactly the effect Table 1 and Figure 6 quantify. *)

val waiting_time : Prob.t list -> float
(** Sum of the co-mapped actors' full execution times ([tau], not [mu]). *)
