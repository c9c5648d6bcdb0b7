(* Zero-allocation estimator kernel.

   Everything here evaluates over preallocated flat arrays: after the scratch
   buffers have grown to the workload's high-water mark (warm-up), no
   function in this module allocates on either heap.  Three rules make that
   hold on a non-flambda native compiler:

   - floats cross non-inlined function boundaries as [(array, index)]
     pairs, never as arguments or results (those are boxed at every call);
     the period engine's float helpers are [@inline], so their arguments
     and results stay in registers;
   - float accumulators are local [ref]s that never escape, which the
     compiler keeps unboxed;
   - every helper is a top-level function taking its state explicitly, so no
     closure is ever built on the hot path.

   The waiting-time evaluators replicate the exact floating-point operation
   sequences of the list-based implementations ({!Wcrt}, {!Approx},
   {!Compose}, {!Exact}) — same fold orders, same parenthesisation, same
   guarded deconvolutions — so the waits are bit-identical to the list-based
   Figure-4 pass kept as [Check.Oracle.reference].  The period is the exact
   ratio of a certified critical cycle; the reference's bisection midpoint
   agrees with it to within its 1e-9 bracket. *)

(* ------------------------------------------------------------------ *)
(* Scratch *)

type scratch = {
  mutable es : float array;  (* symmetric-polynomial basis of a target's others *)
  mutable de : float array;  (* per-contender deconvolved basis *)
  mutable ps : float array;  (* the target's others, compacted *)
  mutable dist : float array;  (* Bellman-Ford longest-path distances *)
  mutable wshift : float array;  (* lambda-shifted edge weights *)
  mutable par : int array;  (* relaxation parents, for cycle extraction *)
  mutable counts : int array;  (* per-actor edge counts of the last witness *)
  mutable tokens : int;  (* token count of the last witness *)
  mutable binding : int;  (* the last period's form, or -1: the witness *)
}

let scratch () =
  {
    es = Array.make 16 0.;
    de = Array.make 16 0.;
    ps = Array.make 16 0.;
    dist = Array.make 64 0.;
    wshift = Array.make 64 0.;
    par = Array.make 64 0;
    counts = Array.make 16 0;
    tokens = 0;
    binding = -1;
  }

let grow a n = if Array.length a < n then Array.make (Int.max n (2 * Array.length a)) 0. else a

let grow_int a n =
  if Array.length a < n then Array.make (Int.max n (2 * Array.length a)) 0 else a

let reserve_group s n =
  (* Waiting-time evaluation over a group of n members needs basis room for
     degrees 0..n and an n-element compaction buffer. *)
  s.es <- grow s.es (n + 2);
  s.de <- grow s.de (n + 2);
  s.ps <- grow s.ps (n + 2)

(* ------------------------------------------------------------------ *)
(* Waiting-time evaluators.

   Group members live in parallel arrays [p]/[mu]/[tau] at [off..off+n-1], in
   the same order the reference path's per-processor contender list has them;
   the wait inflicted on member t by the other members is written to
   [out.(off + t)].  All evaluators handle n = 1 (no contenders, wait 0). *)

let wc_into ~tau ~off ~n ~out =
  let f = out in
  for t = 0 to n - 1 do
    let m = off + t in
    f.(m) <- 0.
  done;
  (* Reference: List.fold_left (+. tau) 0. over the others in group order. *)
  for t = 0 to n - 1 do
    let m = off + t in
    for o = 0 to n - 1 do
      if o <> t then f.(m) <- f.(m) +. tau.(off + o)
    done
  done

(* Compact the target's others into s.ps (group order minus self); returns
   nothing, count is n - 1. *)
let fill_others s ~p ~off ~n ~t =
  for o = 0 to t - 1 do
    s.ps.(o) <- p.(off + o)
  done;
  for o = t + 1 to n - 1 do
    s.ps.(o - 1) <- p.(off + o)
  done

(* j-th coefficient of the Eq. 4 series: (-1)^(j+1) / (j+1), inlined from
   {!Exact.series_coefficient} (a cross-module float return would box). *)
let order_into s ~order ~p ~mu ~off ~n ~out =
  for t = 0 to n - 1 do
    let m = n - 1 in
    if m = 0 then out.(off + t) <- 0.
    else begin
      fill_others s ~p ~off ~n ~t;
      let max_degree = Int.min (order - 1) (m - 1) in
      let k = Int.min (max_degree + 1) m in
      (* es = Sympoly.up_to (max_degree + 1) ps, inlined. *)
      for j = 0 to k do
        s.es.(j) <- 0.
      done;
      s.es.(0) <- 1.;
      for i = 0 to m - 1 do
        let x = s.ps.(i) in
        for j = Int.min k (i + 1) downto 1 do
          s.es.(j) <- s.es.(j) +. (x *. s.es.(j - 1))
        done
      done;
      let acc = ref 0. in
      for o = 0 to m - 1 do
        Sympoly.deconvolve_into ~es:s.es ~xs:s.ps ~skip:o ~out:s.de
          ~n:(max_degree + 1);
        if not (Sympoly.deconv_stable ~es:s.es ~out:s.de ~n:(max_degree + 1))
        then
          Sympoly.refold_trunc_into ~xs:s.ps ~m ~skip:o ~k:max_degree ~out:s.de;
        let series = ref 1. in
        for j = 1 to max_degree do
          series :=
            !series
            +. ((if j mod 2 = 1 then 1. else -1.)
                /. float_of_int (j + 1)
                *. s.de.(j))
        done;
        (* waiting_product l *. series, with the member index of other o *)
        let g = off + if o < t then o else o + 1 in
        acc := !acc +. (mu.(g) *. p.(g) *. !series)
      done;
      out.(off + t) <- !acc
    end
  done

let exact_into s ~p ~mu ~off ~n ~out =
  for t = 0 to n - 1 do
    let m = n - 1 in
    if m = 0 then out.(off + t) <- 0.
    else begin
      fill_others s ~p ~off ~n ~t;
      (* es = Sympoly.all ps, inlined. *)
      for j = 0 to m do
        s.es.(j) <- 0.
      done;
      s.es.(0) <- 1.;
      for i = 0 to m - 1 do
        let x = s.ps.(i) in
        for j = i + 1 downto 1 do
          s.es.(j) <- s.es.(j) +. (x *. s.es.(j - 1))
        done
      done;
      let acc = ref 0. in
      for o = 0 to m - 1 do
        (* Guarded removal, as {!Sympoly.remove}. *)
        Sympoly.deconvolve_into ~es:s.es ~xs:s.ps ~skip:o ~out:s.de ~n:m;
        if not (Sympoly.deconv_stable ~es:s.es ~out:s.de ~n:m) then
          Sympoly.refold_skip_into ~xs:s.ps ~m ~skip:o ~out:s.de;
        let series = ref 1. in
        for j = 1 to m - 1 do
          series :=
            !series
            +. ((if j mod 2 = 1 then 1. else -1.)
                /. float_of_int (j + 1)
                *. s.de.(j))
        done;
        let g = off + if o < t then o else o + 1 in
        acc := !acc +. (mu.(g) *. p.(g) *. !series)
      done;
      out.(off + t) <- !acc
    end
  done

let comp_into ~p ~mu ~off ~n ~out =
  for t = 0 to n - 1 do
    (* Reference: (Compose.combine_all (List.map of_load others)).w — a left
       fold of the ⊗ of Eq. 9 from the empty aggregate, in group order.  ⊗ is
       only second-order associative, so the fold order below must match the
       reference list exactly. *)
    let agg_p = ref 0. and agg_w = ref 0. in
    for o = 0 to n - 1 do
      if o <> t then begin
        let g = off + o in
        let bp = p.(g) in
        let bw = mu.(g) *. p.(g) in
        let ap = !agg_p and aw = !agg_w in
        agg_p := ap +. bp -. (ap *. bp);
        agg_w := (aw *. (1. +. (bp /. 2.))) +. (bw *. (1. +. (ap /. 2.)))
      end
    done;
    out.(off + t) <- !agg_w
  done

(* ------------------------------------------------------------------ *)
(* Flat maximum cycle ratio

   The period is the maximum over the HSDF's cycles of (Σ weights) / (Σ
   tokens), where an edge weighs its source node's actor's execution time.
   A cycle is therefore summarised by its form: per-actor edge counts [c]
   and its token count [d], with ratio (Σ_a c_a·t_a) / d.  Each graph keeps
   a fixed set of forms, found at construction; a call starts Dinkelbach's
   critical-cycle iteration at the best form's ratio, so one probe that
   finds no cycle above it certifies the answer. *)

type graph = {
  nnodes : int;
  nedges : int;
  nactors : int;  (* 1 + the largest actor index weighting an edge *)
  src : int array;
  dst : int array;
  wactor : int array;  (* actor index weighting each edge (its source node) *)
  delay : int array;  (* >= 0 by construction *)
  cyclic : bool;  (* topology-only, so decided once *)
  zero_delay_cycle : bool;  (* topology-only, so decided once *)
  forms : int array;  (* form k's per-actor counts at [k * nactors ..] *)
  form_tokens : int array;  (* form k's token count, >= 1 *)
  source_name : string;  (* for error messages *)
}

let reserve_graph s g =
  s.dist <- grow s.dist g.nnodes;
  s.par <- grow_int s.par g.nnodes;
  s.wshift <- grow s.wshift g.nedges;
  s.counts <- grow_int s.counts g.nactors

let no_cycle_msg g =
  Printf.sprintf "Sdf.Hsdf.period: graph %S has no cycle (unbounded rate)"
    g.source_name

(* A probe found a cycle above [lambda] but no witness above it: the probe's
   tolerance no longer covers its roundoff. *)
let no_witness g lambda =
  invalid_arg
    (Printf.sprintf
       "Contention.Kernel.period_into: graph %S: no witness cycle improves on \
        %.17g"
       g.source_name lambda)

(* (Σ_a c_a·t_a) / d for the counts at [counts.(coff ..)], summed in actor
   order — the one way every returned period is computed, so it is a pure
   function of the cycle and the execution times.  On integral times the
   sum is exact and the quotient is the correctly rounded rational. *)
let[@inline] cycle_ratio g ~counts ~coff ~tokens ~exec ~exec_off =
  let sum = ref 0. in
  for a = 0 to g.nactors - 1 do
    sum := !sum +. (float_of_int counts.(coff + a) *. exec.(exec_off + a))
  done;
  !sum /. float_of_int tokens

(* One Bellman-Ford positive-cycle probe at [lambda], recording relaxation
   parents.  Returns a node still relaxed after [nnodes] rounds — a parent
   chain from it reaches a cycle whose shifted weight exceeds the
   tolerance — or -1 when a round relaxes nothing: then no cycle's shifted
   weight exceeds its length times [tol], so none has a ratio above
   [lambda] beyond that slack. *)
let[@inline] probe s g ~exec ~exec_off ~lambda ~tol =
  for e = 0 to g.nedges - 1 do
    s.wshift.(e) <-
      exec.(exec_off + g.wactor.(e)) -. (lambda *. float_of_int g.delay.(e))
  done;
  for v = 0 to g.nnodes - 1 do
    s.dist.(v) <- 0.;
    s.par.(v) <- -1
  done;
  let changed = ref true and round = ref 0 and last = ref (-1) in
  while !changed && !round <= g.nnodes do
    changed := false;
    incr round;
    for e = 0 to g.nedges - 1 do
      let candidate = s.dist.(g.src.(e)) +. s.wshift.(e) in
      if candidate > s.dist.(g.dst.(e)) +. tol then begin
        s.dist.(g.dst.(e)) <- candidate;
        s.par.(g.dst.(e)) <- e;
        changed := true;
        last := g.dst.(e)
      end
    done
  done;
  if !changed then !last else -1

(* The witness cycle behind [probe]'s node [last]: walking [nnodes] parents
   lands on a cycle of the parent graph, whose edges are counted per actor
   into [s.counts].  Every parent-graph cycle has positive shifted weight,
   so its ratio lies above the probe's lambda.  Returns the cycle's token
   count, or 0 when the walk leaves the parent graph (no witness). *)
let witness s g last =
  for a = 0 to g.nactors - 1 do
    s.counts.(a) <- 0
  done;
  let v = ref last in
  for _ = 1 to g.nnodes do
    if !v >= 0 then v := if s.par.(!v) < 0 then -1 else g.src.(s.par.(!v))
  done;
  if !v < 0 then 0
  else begin
    let start = !v and tokens = ref 0 and closed = ref false in
    while not !closed do
      let e = s.par.(!v) in
      s.counts.(g.wactor.(e)) <- s.counts.(g.wactor.(e)) + 1;
      tokens := !tokens + g.delay.(e);
      v := g.src.(e);
      closed := !v = start
    done;
    !tokens
  end

let period_into s g ~exec ~exec_off ~out ~out_idx =
  reserve_graph s g;
  let total = ref 0. in
  for e = 0 to g.nedges - 1 do
    let w = exec.(exec_off + g.wactor.(e)) in
    if w < 0. then invalid_arg "Sdf.Mcm: negative weight or delay";
    if not (w -. w = 0.) then
      invalid_arg (Printf.sprintf "Sdf.Mcm: non-finite edge weight %g" w);
    total := !total +. w
  done;
  (* An edgeless graph is acyclic; a zero-delay cycle makes a graph cyclic,
     so these two checks keep the order the errors were always raised in. *)
  if not g.cyclic then invalid_arg (no_cycle_msg g);
  if g.zero_delay_cycle then
    invalid_arg "Sdf.Mcm.max_cycle_ratio: zero-delay cycle (deadlock)";
  (* The probe's roundoff grows with its longest-path distances, which the
     total weight bounds, so its relaxation tolerance scales with it: an
     absolute one is finer than float resolution once weights pass ~1e3,
     and rounding would then fake relaxations. *)
  let tol = 1e-12 *. Float.max 1. !total in
  let lambda = ref neg_infinity in
  for k = 0 to Array.length g.form_tokens - 1 do
    let r =
      cycle_ratio g ~counts:g.forms ~coff:(k * g.nactors)
        ~tokens:g.form_tokens.(k) ~exec ~exec_off
    in
    if r > !lambda then begin
      lambda := r;
      s.binding <- k
    end
  done;
  (* Dinkelbach: while a probe finds a cycle above lambda, jump to that
     cycle's ratio.  Every jump strictly raises lambda through simple
     cycles, so the iteration ends, on a cycle no probe can beat. *)
  let certified = ref false in
  while not !certified do
    let last = probe s g ~exec ~exec_off ~lambda:!lambda ~tol in
    if last < 0 then certified := true
    else begin
      let tokens = witness s g last in
      let r =
        if tokens = 0 then neg_infinity
        else cycle_ratio g ~counts:s.counts ~coff:0 ~tokens ~exec ~exec_off
      in
      if not (r > !lambda) then no_witness g !lambda;
      lambda := r;
      s.binding <- -1;
      s.tokens <- tokens
    end
  done;
  out.(out_idx) <- !lambda

let graph ~nnodes ~name ~seeds edges =
  let nedges = Array.length edges in
  let src = Array.make nedges 0
  and dst = Array.make nedges 0
  and wactor = Array.make nedges 0
  and delay = Array.make nedges 0 in
  Array.iteri
    (fun e (u, v, a, d) ->
      if d < 0 then invalid_arg "Contention.Kernel.graph: negative delay";
      if u < 0 || u >= nnodes || v < 0 || v >= nnodes then
        invalid_arg "Contention.Kernel.graph: edge endpoint out of range";
      if a < 0 then invalid_arg "Contention.Kernel.graph: negative actor index";
      src.(e) <- u;
      dst.(e) <- v;
      wactor.(e) <- a;
      delay.(e) <- d)
    edges;
  let nactors = Array.fold_left (fun m a -> Int.max m (a + 1)) 0 wactor in
  let zero_delay_cycle = Sdf.Mcm.zero_delay_cycle ~nodes:nnodes edges in
  let g =
    {
      nnodes;
      nedges;
      nactors;
      src;
      dst;
      wactor;
      delay;
      cyclic = zero_delay_cycle;
      zero_delay_cycle;
      forms = [||];
      form_tokens = [||];
      source_name = name;
    }
  in
  (* Some cycle, if there is one: with every edge weighing 1, every cycle is
     positive at lambda = 0. *)
  let s = scratch () and out = [| 0. |] in
  reserve_graph s g;
  let last = probe s g ~exec:(Array.make nactors 1.) ~exec_off:0 ~lambda:0. ~tol:0. in
  if zero_delay_cycle || last < 0 then g
  else begin
    let tokens = witness s g last in
    if tokens = 0 then no_witness g 0.;
    let with_forms forms =
      {
        g with
        cyclic = true;
        forms = Array.concat (List.map fst forms);
        form_tokens = Array.of_list (List.map snd forms);
      }
    in
    let cycle = (Array.sub s.counts 0 nactors, tokens) in
    (* The forms are the certified critical cycles at the seeds; the search
       for the first one starts from the cycle just found. *)
    let critical forms t =
      period_into s (with_forms forms) ~exec:t ~exec_off:0 ~out ~out_idx:0;
      if s.binding >= 0 then List.nth forms s.binding
      else (Array.sub s.counts 0 nactors, s.tokens)
    in
    let add forms t =
      let c = critical (if forms = [] then [ cycle ] else forms) t in
      if List.mem c forms then forms else forms @ [ c ]
    in
    with_forms (if seeds = [] then [ cycle ] else List.fold_left add [] seeds)
  end
