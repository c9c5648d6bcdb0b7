(** Elementary symmetric polynomials.

    [e_j(x_1..x_n) = sum over all j-element subsets S of (product of x_i, i in S)],
    with [e_0 = 1].  These are the [Pi_j] terms of the paper's Equation 4. *)

val all : float array -> float array
(** [all xs] is [[| e_0; e_1; ...; e_n |]] computed by the Newton-like
    recurrence in O(n²) time (each element folded into a running coefficient
    vector). *)

val up_to : int -> float array -> float array
(** [up_to k xs] is [[| e_0; ...; e_min(k,n) |]] in O(n·k) time — the
    truncation used by the m-th order approximation. *)

val remove : xs:float array -> skip:int -> float array -> float array
(** [remove ~xs ~skip es] is [all (xs minus the element at skip)] given
    [es = all xs]: the O(n) deconvolution [e'_j = e_j - x e'_(j-1)],
    guarded.  The raw recurrence cancels catastrophically when the removed
    element is near 1 and its co-elements are tiny; when a running
    coefficient turns negative or has lost eight decimal digits to
    cancellation ([e'_j < 1e-8 e_j]), the result is recomputed from [xs]
    directly (O(n²), bit-identical to [all] of the remaining elements).
    @raise Invalid_argument if [skip] is out of range or [es] was not built
    from [xs]. *)

(** {1 Allocation-free primitives}

    The building blocks behind {!remove}, shared with {!Kernel} and the
    guarded deconvolutions of {!Exact}/{!Approx}.  All of them operate on
    caller-provided buffers, take elements as [(array, index)] pairs rather
    than raw floats (so nothing is boxed at the call boundary), and perform
    no allocation — they are safe inside the zero-allocation estimator
    loops. *)

val deconvolve_into :
  es:float array -> xs:float array -> skip:int -> out:float array -> n:int -> unit
(** Write degrees [0..n-1] of the basis minus [xs.(skip)] into [out]
    ([out.(0) = 1]), reading degrees [1..n-1] of [es].  Unguarded. *)

val deconv_stable : es:float array -> out:float array -> n:int -> bool
(** Whether a {!deconvolve_into} result is trustworthy: no coefficient in
    degrees [1..n-1] went negative or fell below [1e-8] of the corresponding
    full-basis coefficient (eight decimal digits lost to cancellation).
    Degrees where both coefficients are at most [1e-12] are underflow, not
    cancellation, and pass. *)

val refold_skip_into :
  xs:float array -> m:int -> skip:int -> out:float array -> unit
(** Recompute fallback: degrees [0..m-1] of [xs.(0..m-1)] minus [xs.(skip)]
    by the {!all} recurrence (bit-identical to [all] of a compacted copy). *)

val refold_trunc_into :
  xs:float array -> m:int -> skip:int -> k:int -> out:float array -> unit
(** As {!refold_skip_into} but truncated at degree [k] ({!up_to}'s
    recurrence) — the fallback of the order-m estimator's deconvolution. *)
