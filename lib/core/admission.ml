type requirement = { min_throughput : float }

let best_effort = { min_throughput = 0. }

type margin_spec = {
  confidence : float;
  method_ : Margin.method_;
  samples : int;
  seed : int64;
}

let default_margin_spec =
  { confidence = 0.95; method_ = Margin.Z_score; samples = 200; seed = 0x6d617267696eL }

type verdict =
  | Admitted of { margin : Margin.t option }
  | Rejected_candidate of { estimated : float; required : float }
  | Rejected_victim of { app : string; estimated : float; required : float }

type counters = {
  joins : int;
  leaves : int;
  observes : int;
  incremental_ops : int;
  full_rebuilds : int;
  drift_refolds : int;
  group_rebuilds : int;
  group_drift_refolds : int;
}

(* One admitted application, linked into the roster in admission order. *)
type entry = {
  name : string;
  app : Analysis.app;
  req : requirement;
  mutable loads : Prob.t array;
  mutable variances : float array;
      (* per-actor variance of the blocking contribution at [loads]; set at
         join, reset by [observe], mirrored in the variance log *)
  mutable slot : int;  (* its first pair in the variance log *)
  mutable older : entry option;
  mutable newer : entry option;
}

type t = {
  nprocs : int;
  aggregates : Compose.t array;  (* one per processor, all admitted actors *)
  refold_bound : float;
  agg_drift : float array;
      (* per-processor accumulated second-order ⊖ error of the w-aggregate;
         a refold is forced when it crosses [refold_bound] *)
  by_name : (string, entry) Hashtbl.t;
  mutable newest : entry option;  (* the roster's two ends *)
  mutable oldest : entry option;
  (* The variance log: every resident's per-actor (processor, variance)
     pairs in admission order, each resident's actors reversed (see
     below).  A withdrawal zeroes its pairs; the log is compacted once
     zeroed pairs outnumber live ones. *)
  mutable log_proc : int array;
  mutable log_var : float array;
  mutable log_len : int;  (* pairs in use *)
  mutable log_zeroed : int;  (* zeroed pairs among them *)
  mutable guaranteed : int;  (* admitted entries with a requirement *)
  mutable joins : int;
  mutable leaves : int;
  mutable observes_n : int;
  mutable incremental_ops : int;
  mutable full_rebuilds : int;
  mutable drift_refolds : int;
}

let create ?(refold_bound = 0.05) ~procs () =
  if procs < 1 then invalid_arg "Contention.Admission.create: procs < 1";
  if not (refold_bound > 0.) then
    invalid_arg "Contention.Admission.create: non-positive refold bound";
  {
    nprocs = procs;
    aggregates = Array.make procs Compose.empty;
    refold_bound;
    agg_drift = Array.make procs 0.;
    by_name = Hashtbl.create 64;
    newest = None;
    oldest = None;
    log_proc = Array.make 64 0;
    log_var = Array.make 64 0.;
    log_len = 0;
    log_zeroed = 0;
    guaranteed = 0;
    joins = 0;
    leaves = 0;
    observes_n = 0;
    incremental_ops = 0;
    full_rebuilds = 0;
    drift_refolds = 0;
  }

let procs t = t.nprocs

(* The roster.  Float folds depend on their order, so every fold over the
   population keeps one: newest first for the victim scan, the margins and
   [admitted], with a join's candidate in front; oldest first for refolds. *)
let rec iter_older f = function
  | None -> ()
  | Some e ->
      f e;
      iter_older f e.older

let rec iter_newer f = function
  | None -> ()
  | Some e ->
      f e;
      iter_newer f e.newer

let iter_population t candidate f =
  Option.iter f candidate;
  iter_older f t.newest

let rec find_older f = function
  | None -> None
  | Some e -> ( match f e with None -> find_older f e.older | found -> found)

let link_newest t e =
  let node = Some e in
  e.older <- t.newest;
  (match t.newest with Some n -> n.newer <- node | None -> t.oldest <- node);
  t.newest <- node

let unlink t e =
  (match e.newer with Some n -> n.older <- e.older | None -> t.newest <- e.older);
  match e.older with Some o -> o.newer <- e.newer | None -> t.oldest <- e.newer

(* ------------------------------------------------------------------ *)
(* The variance log.  Entry [e]'s actor [a] of [n] sits at pair
   [e.slot + n - 1 - a], so a backward scan visits the residents newest
   first and each one's actors ascending: the order of the roster walk the
   z-score margin summed in.  Float sums depend on their order, so that
   order keeps every margin bit for bit. *)

let log_write t (e : entry) =
  let n = Array.length e.variances in
  for actor = 0 to n - 1 do
    let i = e.slot + n - 1 - actor in
    t.log_proc.(i) <- e.app.Analysis.mapping.(actor);
    t.log_var.(i) <- e.variances.(actor)
  done

let log_append t (e : entry) =
  let n = Array.length e.variances in
  if t.log_len + n > Array.length t.log_var then begin
    let room = Int.max (t.log_len + n) (2 * Array.length t.log_var) in
    let procs = Array.make room 0 and vars = Array.make room 0. in
    Array.blit t.log_proc 0 procs 0 t.log_len;
    Array.blit t.log_var 0 vars 0 t.log_len;
    t.log_proc <- procs;
    t.log_var <- vars
  end;
  e.slot <- t.log_len;
  t.log_len <- t.log_len + n;
  log_write t e

(* A zeroed pair adds +0.0 to a sum that is never negative, so it changes no
   bit of it.  Compaction moves the live pairs down in roster order, which
   is their order already; it runs once per as many zeroed pairs as it
   keeps, so a withdrawal costs O(its actors) amortised. *)
let log_withdraw t (e : entry) =
  let n = Array.length e.variances in
  Array.fill t.log_var e.slot n 0.;
  t.log_zeroed <- t.log_zeroed + n;
  if t.log_zeroed > t.log_len - t.log_zeroed then begin
    let next = ref 0 in
    iter_newer
      (fun (o : entry) ->
        for k = 0 to Array.length o.variances - 1 do
          t.log_proc.(!next + k) <- t.log_proc.(o.slot + k);
          t.log_var.(!next + k) <- t.log_var.(o.slot + k)
        done;
        o.slot <- !next;
        next := !next + Array.length o.variances)
      t.oldest;
    t.log_len <- !next;
    t.log_zeroed <- 0
  end

(* Adds the logged variances into [var] per processor: a newest-first
   roster walk's additions, in its order. *)
let add_logged t var =
  for i = t.log_len - 1 downto 0 do
    let proc = t.log_proc.(i) in
    var.(proc) <- var.(proc) +. t.log_var.(i)
  done

let admitted t =
  let acc = ref [] in
  iter_newer (fun e -> acc := (e.name, e.app, e.req) :: !acc) t.oldest;
  !acc

let counters t =
  {
    joins = t.joins;
    leaves = t.leaves;
    observes = t.observes_n;
    incremental_ops = t.incremental_ops;
    full_rebuilds = t.full_rebuilds;
    drift_refolds = t.drift_refolds;
    group_rebuilds = 0;
    group_drift_refolds = 0;
  }

(* Eq. 8 divides by 1 - p, so ⊖ of a load this close to saturation
   amplifies the rounding of the aggregate's P by more than 1e8 and keeps no
   trustworthy digit of the rest: withdrawing a 1 - 1e-12 load from
   co-residents of 1e-9 leaves 1e-4 in p and a negative w.  Such a load is
   treated as saturated (P = 1, where the inverse does not exist at all). *)
let near_saturation = 1e-8

let invertible (l : Prob.t) = 1. -. l.p >= near_saturation

(* Per-actor response times of [e] when the per-processor aggregates are
   [aggregates] and the admitted population is [candidate] plus the roster;
   each actor's waiting time is the aggregate minus its own contribution
   (the O(1)-per-actor inverse path, Eq. 8-9).  A (near-)saturated actor has
   no usable inverse; those fall back to folding the other co-mapped actors
   directly. *)
let responses_under t candidate aggregates (e : entry) =
  let g = e.app.Analysis.graph in
  let fold_others proc actor =
    let acc = ref Compose.empty in
    iter_population t candidate (fun other ->
        Array.iteri
          (fun idx load ->
            if
              (not (other == e && idx = actor))
              && other.app.Analysis.mapping.(idx) = proc
            then acc := Compose.combine !acc (Compose.of_load load))
          other.loads);
    !acc
  in
  Array.init (Sdf.Graph.num_actors g) (fun actor ->
      let proc = e.app.Analysis.mapping.(actor) in
      let load = e.loads.(actor) in
      let rest =
        if invertible load then
          Compose.remove ~total:aggregates.(proc) (Compose.of_load load)
        else fold_others proc actor
      in
      (Sdf.Graph.actor g actor).exec_time +. rest.Compose.w)

(* Every period below runs on the one period engine, {!Analysis.period_with},
   over a cache prepared once per call and dropped with it: no prepared
   cache is kept per admitted entry. *)
let period_under cache t candidate aggregates (e : entry) =
  Analysis.period_with cache
    ~response_times:(responses_under t candidate aggregates e)

(* ------------------------------------------------------------------ *)
(* Confidence margins *)

(* The execution-time distribution behind an actor's load: the declared one
   when the application uses the Section 6 extension, else the paper's
   constant base model (whose residual life is uniform on [0, tau]). *)
let dist_of (a : Analysis.app) actor =
  match a.distributions with
  | Some ds -> ds.(actor)
  | None -> Dist.Constant (Sdf.Graph.actor a.graph actor).exec_time

(* Variance of each actor's blocking contribution B = Bernoulli(p) · R with
   R the residual life: E B² − (E B)² = p·E R² − (p·E R)². *)
let variances (a : Analysis.app) loads =
  Array.mapi
    (fun actor (l : Prob.t) ->
      let r2 = Dist.residual_second_moment (dist_of a actor) in
      Float.max 0. ((l.p *. r2) -. ((l.p *. l.mu) *. (l.p *. l.mu))))
    loads

let margin_z cache t candidate aggregates (e : entry) ~period ~confidence =
  let g = e.app.Analysis.graph in
  let na = Sdf.Graph.num_actors g in
  let z = Margin.z_of_confidence confidence in
  (* Per-processor variance of the total inflicted wait: the contenders
     block independently, so the variances add, a join's candidate first. *)
  let var = Array.make t.nprocs 0. in
  Option.iter
    (fun (c : entry) ->
      Array.iteri
        (fun actor v ->
          let proc = c.app.Analysis.mapping.(actor) in
          var.(proc) <- var.(proc) +. v)
        c.variances)
    candidate;
  add_logged t var;
  let responses = responses_under t candidate aggregates e in
  let resp_lo = Array.make na 0. and resp_hi = Array.make na 0. in
  for actor = 0 to na - 1 do
    let proc = e.app.Analysis.mapping.(actor) in
    let own = e.variances.(actor) in
    let std = sqrt (Float.max 0. (var.(proc) -. own)) in
    let exec = (Sdf.Graph.actor g actor).exec_time in
    let wait = Float.max 0. (responses.(actor) -. exec) in
    resp_lo.(actor) <- exec +. Float.max 0. (wait -. (z *. std));
    resp_hi.(actor) <- exec +. wait +. (z *. std)
  done;
  let lo = Analysis.period_with cache ~response_times:resp_lo in
  let hi = Analysis.period_with cache ~response_times:resp_hi in
  Margin.of_bounds ~confidence ~period ~lo ~hi

let margin_quantile cache t candidate (e : entry) ~period ~confidence ~samples
    ~seed =
  let g = e.app.Analysis.graph in
  let na = Sdf.Graph.num_actors g in
  (* Flatten the population once: every admitted actor is one independent
     blocking source; the candidate's own actors are remembered so each can
     subtract its own contribution from its processor total. *)
  let procs_of = ref [] and ps = ref [] and dists = ref [] in
  let npop = ref 0 in
  let own_slot = Array.make na (-1) in
  iter_population t candidate (fun o ->
      Array.iteri
        (fun actor (l : Prob.t) ->
          procs_of := o.app.Analysis.mapping.(actor) :: !procs_of;
          ps := l.p :: !ps;
          dists := dist_of o.app actor :: !dists;
          if o == e then own_slot.(actor) <- !npop;
          incr npop)
        o.loads);
  let npop = !npop in
  let proc_of = Array.of_list (List.rev !procs_of) in
  let p_of = Array.of_list (List.rev !ps) in
  let dist_of_slot = Array.of_list (List.rev !dists) in
  let rng = Margin.Rng.create seed in
  let nprocs = t.nprocs in
  let totals = Array.make nprocs 0. in
  let contrib = Array.make (Int.max 1 npop) 0. in
  let resp = Array.make na 0. in
  let periods =
    Array.init samples (fun _ ->
        Array.fill totals 0 nprocs 0.;
        for j = 0 to npop - 1 do
          let u0 = Margin.Rng.uniform rng in
          let u1 = Margin.Rng.uniform rng in
          let u2 = Margin.Rng.uniform rng in
          let c =
            if u0 < p_of.(j) then
              Dist.residual_sample dist_of_slot.(j) ~u1 ~u2
            else 0.
          in
          contrib.(j) <- c;
          totals.(proc_of.(j)) <- totals.(proc_of.(j)) +. c
        done;
        for actor = 0 to na - 1 do
          let proc = e.app.Analysis.mapping.(actor) in
          let own = if own_slot.(actor) >= 0 then contrib.(own_slot.(actor)) else 0. in
          resp.(actor) <-
            (Sdf.Graph.actor g actor).exec_time
            +. Float.max 0. (totals.(proc) -. own)
        done;
        Analysis.period_with cache ~response_times:resp)
  in
  Margin.of_samples ~confidence ~period periods

let compute_margin cache t candidate aggregates (e : entry) ~period spec =
  match spec.method_ with
  | Margin.Z_score ->
      margin_z cache t candidate aggregates e ~period
        ~confidence:spec.confidence
  | Margin.Quantile ->
      margin_quantile cache t candidate e ~period ~confidence:spec.confidence
        ~samples:spec.samples ~seed:spec.seed

(* Refused before any work, whichever verdict would follow. *)
let check_spec spec =
  if not (spec.confidence > 0. && spec.confidence < 1.) then
    invalid_arg "Contention.Admission: margin confidence outside (0,1)";
  if spec.samples < 1 then invalid_arg "Contention.Admission: margin samples < 1"

(* ------------------------------------------------------------------ *)
(* Aggregate maintenance *)

let combine_into aggregates (e : entry) =
  Array.iteri
    (fun actor load ->
      let proc = e.app.Analysis.mapping.(actor) in
      aggregates.(proc) <- Compose.combine aggregates.(proc) (Compose.of_load load))
    e.loads

let add_loads aggregates e =
  let updated = Array.copy aggregates in
  combine_into updated e;
  updated

let entry_of app req =
  let loads = Analysis.loads app in
  {
    name = app.Analysis.graph.Sdf.Graph.name;
    app;
    req;
    loads;
    variances = variances app loads;
    slot = -1;
    older = None;
    newer = None;
  }

(* One processor's aggregate refolded from the population in insertion
   order — O(resident actors). *)
let fold_proc t proc =
  let acc = ref Compose.empty in
  iter_newer
    (fun e ->
      Array.iteri
        (fun actor load ->
          if e.app.Analysis.mapping.(actor) = proc then
            acc := Compose.combine !acc (Compose.of_load load))
        e.loads)
    t.oldest;
  !acc

let refold_proc t proc =
  Obs.Span.with_ ~name:"admission.refold" (fun () ->
      t.aggregates.(proc) <- fold_proc t proc);
  t.agg_drift.(proc) <- 0.;
  t.drift_refolds <- t.drift_refolds + 1

let drift_check t =
  for proc = 0 to t.nprocs - 1 do
    if t.agg_drift.(proc) > t.refold_bound then refold_proc t proc
  done

let join margin t app req =
  let name = app.Analysis.graph.Sdf.Graph.name in
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "Contention.Admission: %S already admitted" name);
  Array.iter
    (fun proc ->
      if proc < 0 || proc >= t.nprocs then
        invalid_arg
          (Printf.sprintf "Contention.Admission: %S maps to processor %d" name proc))
    app.Analysis.mapping;
  let candidate = entry_of app req in
  let tentative = add_loads t.aggregates candidate in
  let population = Some candidate in
  let cache = Analysis.prepare app in
  let candidate_period = period_under cache t population tentative candidate in
  let candidate_tp = 1. /. candidate_period in
  if candidate_tp < req.min_throughput then
    Rejected_candidate { estimated = candidate_tp; required = req.min_throughput }
  else
    let victim =
      (* A best-effort application has no requirement to violate, so it can
         never be a victim: with no guaranteed resident there is no scan. *)
      if t.guaranteed = 0 then None
      else
        find_older
          (fun e ->
            if e.req.min_throughput <= 0. then None
            else
              let tp =
                1. /. period_under (Analysis.prepare e.app) t population tentative e
              in
              if tp < e.req.min_throughput then
                Some
                  (Rejected_victim
                     { app = e.name; estimated = tp; required = e.req.min_throughput })
              else None)
          t.newest
    in
    match victim with
    | Some verdict -> verdict
    | None ->
        let margin =
          Option.map
            (compute_margin cache t population tentative candidate
               ~period:candidate_period)
            margin
        in
        Array.blit tentative 0 t.aggregates 0 t.nprocs;
        Hashtbl.add t.by_name name candidate;
        link_newest t candidate;
        log_append t candidate;
        if req.min_throughput > 0. then t.guaranteed <- t.guaranteed + 1;
        t.joins <- t.joins + 1;
        t.incremental_ops <- t.incremental_ops + Array.length candidate.loads;
        Admitted { margin }

let try_admit ?margin t app req =
  Option.iter check_spec margin;
  Obs.Span.with_ ~name:"admission.join" (fun () -> join margin t app req)

let find t name = Hashtbl.find t.by_name name

let rebuild_aggregates t =
  Obs.Span.with_ ~name:"admission.refold" (fun () ->
      Array.fill t.aggregates 0 t.nprocs Compose.empty;
      iter_newer (combine_into t.aggregates) t.oldest);
  Array.fill t.agg_drift 0 t.nprocs 0.

let leave t name =
  let e = find t name in
  (* The ⊗ fold is only second-order associative, so ⊖ is exact only when
     undone LIFO: for the most recently admitted application the round-trip
     is exact; for older ones it is exact in p and second-order accurate in
     w, and the accumulated error is traded for a refold at the bound. *)
  let lifo = Option.is_none e.newer in
  Hashtbl.remove t.by_name name;
  unlink t e;
  log_withdraw t e;
  if e.req.min_throughput > 0. then t.guaranteed <- t.guaranteed - 1;
  t.leaves <- t.leaves + 1;
  if Array.for_all invertible e.loads then begin
    for actor = Array.length e.loads - 1 downto 0 do
      let proc = e.app.Analysis.mapping.(actor) in
      let l = e.loads.(actor) in
      t.aggregates.(proc) <-
        Compose.remove ~total:t.aggregates.(proc) (Compose.of_load l);
      t.incremental_ops <- t.incremental_ops + 1;
      (* The ⊗ residue the non-LIFO inverse cannot see is third order: the
         removed element's cross terms with the whole remaining fold, so
         charge p·P_rest/4 relative in w (P_rest is the surviving
         aggregate's blocking probability, not just one co-element's). *)
      if not lifo then
        t.agg_drift.(proc) <-
          t.agg_drift.(proc) +. (0.25 *. l.p *. t.aggregates.(proc).Compose.p)
    done;
    drift_check t
  end
  else begin
    (* A (near-)saturated actor has no usable inverse (Eq. 8 needs
       P <> 1); rebuild the aggregates from the remaining population
       instead. *)
    rebuild_aggregates t;
    t.full_rebuilds <- t.full_rebuilds + 1
  end

let withdraw t name =
  Obs.Span.with_ ~name:"admission.leave" (fun () -> leave t name)

let release t name =
  if Hashtbl.mem t.by_name name then begin
    withdraw t name;
    Ok ()
  end
  else Error (Printf.sprintf "application %S is not admitted" name)

let observe t name ~measured_period =
  (* Everything that can refuse runs before the first write. *)
  if not (Float.is_finite measured_period && measured_period > 0.) then
    invalid_arg "Contention.Admission.observe: period not finite and positive";
  let e = find t name in
  let old_loads = e.loads in
  let new_loads = Analysis.loads_at_period e.app ~period:measured_period in
  e.loads <- new_loads;
  e.variances <- variances e.app new_loads;
  log_write t e;
  t.observes_n <- t.observes_n + 1;
  if Array.for_all invertible old_loads then begin
    (* Re-base each actor incrementally: ⊖ the old contribution, ⊕ the new
       one — the aggregates never see a from-scratch refold on this path. *)
    Array.iteri
      (fun actor (l0 : Prob.t) ->
        let proc = e.app.Analysis.mapping.(actor) in
        let without =
          Compose.remove ~total:t.aggregates.(proc) (Compose.of_load l0)
        in
        t.aggregates.(proc) <-
          Compose.combine without (Compose.of_load new_loads.(actor));
        t.incremental_ops <- t.incremental_ops + 1;
        (* Same third-order residue bound as the withdraw path. *)
        t.agg_drift.(proc) <-
          t.agg_drift.(proc)
          +. (0.25 *. l0.p *. t.aggregates.(proc).Compose.p))
      old_loads;
    drift_check t
  end
  else begin
    rebuild_aggregates t;
    t.full_rebuilds <- t.full_rebuilds + 1
  end

let estimated_period t name =
  let e = find t name in
  period_under (Analysis.prepare e.app) t None t.aggregates e

let estimated_throughput t name = 1. /. estimated_period t name

let margin_for t spec name =
  check_spec spec;
  let e = find t name in
  let cache = Analysis.prepare e.app in
  let period = period_under cache t None t.aggregates e in
  compute_margin cache t None t.aggregates e ~period spec

(* ------------------------------------------------------------------ *)
(* Introspection for the churn oracle *)

let check_proc t proc name =
  if proc < 0 || proc >= t.nprocs then
    invalid_arg (Printf.sprintf "Contention.Admission.%s: unknown processor %d" name proc)

let aggregate t ~proc =
  check_proc t proc "aggregate";
  t.aggregates.(proc)

let refolded_aggregate t ~proc =
  check_proc t proc "refolded_aggregate";
  fold_proc t proc

let aggregate_drift t ~proc =
  check_proc t proc "aggregate_drift";
  t.agg_drift.(proc)

let variance t ~proc =
  check_proc t proc "variance";
  let var = Array.make t.nprocs 0. in
  add_logged t var;
  var.(proc)

let refolded_variance t ~proc =
  check_proc t proc "refolded_variance";
  let acc = ref 0. in
  iter_older
    (fun e ->
      Array.iteri
        (fun actor v -> if e.app.Analysis.mapping.(actor) = proc then acc := !acc +. v)
        e.variances)
    t.newest;
  !acc
