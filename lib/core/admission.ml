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

type entry = {
  app : Analysis.app;
  req : requirement;
  mutable loads : Prob.t array;
  mutable measured : float option;
  mutable ids : int array;  (* per-actor member id in its processor group *)
}

type t = {
  nprocs : int;
  aggregates : Compose.t array;  (* one per processor, all admitted actors *)
  groups : Kernel.Group.t array;
      (* one per processor: the same population with its symmetric-polynomial
         basis maintained incrementally (⊕ on admit, ⊖ on withdraw, O(n)
         update on observe), backing the Eq. 4 estimators of
         {!estimated_period_via} without per-query rebuilds *)
  refold_bound : float;
  agg_drift : float array;
      (* per-processor accumulated second-order ⊖ error of the w-aggregate;
         a refold is forced when it crosses [refold_bound] *)
  mutable next_id : int;
  mutable entries : (string * entry) list;
  mutable joins : int;
  mutable leaves : int;
  mutable observes_n : int;
  mutable incremental_ops : int;
  mutable full_rebuilds : int;
  mutable drift_refolds : int;
}

let create ?(refold_bound = 0.05) ?(group_drift_bound = 1e-6) ~procs () =
  if procs < 1 then invalid_arg "Contention.Admission.create: procs < 1";
  if not (refold_bound > 0.) then
    invalid_arg "Contention.Admission.create: non-positive refold bound";
  {
    nprocs = procs;
    aggregates = Array.make procs Compose.empty;
    groups =
      Array.init procs (fun _ ->
          Kernel.Group.create ~drift_bound:group_drift_bound ());
    refold_bound;
    agg_drift = Array.make procs 0.;
    next_id = 0;
    entries = [];
    joins = 0;
    leaves = 0;
    observes_n = 0;
    incremental_ops = 0;
    full_rebuilds = 0;
    drift_refolds = 0;
  }

let procs t = t.nprocs

let admitted t = List.map (fun (name, e) -> (name, e.app, e.req)) t.entries

let counters t =
  {
    joins = t.joins;
    leaves = t.leaves;
    observes = t.observes_n;
    incremental_ops = t.incremental_ops;
    full_rebuilds = t.full_rebuilds;
    drift_refolds = t.drift_refolds;
    group_rebuilds =
      Array.fold_left (fun acc g -> acc + Kernel.Group.rebuilds g) 0 t.groups;
    group_drift_refolds =
      Array.fold_left (fun acc g -> acc + Kernel.Group.drift_refolds g) 0 t.groups;
  }

(* Per-actor response times of [e] when the per-processor aggregates are
   [aggregates] and the admitted population is [entries]; each actor's
   waiting time is the aggregate minus its own contribution (the
   O(1)-per-actor inverse path, Eq. 8-9).  The inverse is undefined for a
   saturated actor (P = 1, noted in the paper); those fall back to folding
   the other co-mapped actors directly. *)
let responses_under entries aggregates (e : entry) =
  let g = e.app.Analysis.graph in
  let fold_others proc actor =
    let contribution acc (name, other) =
      Array.fold_left
        (fun (acc, idx) load ->
          let same = name = g.Sdf.Graph.name && idx = actor in
          let acc =
            if (not same) && other.app.Analysis.mapping.(idx) = proc then
              Compose.combine acc (Compose.of_load load)
            else acc
          in
          (acc, idx + 1))
        (acc, 0) other.loads
      |> fst
    in
    List.fold_left contribution Compose.empty entries
  in
  Array.init (Sdf.Graph.num_actors g) (fun actor ->
      let proc = e.app.Analysis.mapping.(actor) in
      let own = Compose.of_load e.loads.(actor) in
      let rest =
        if own.Compose.p < 1. then Compose.remove ~total:aggregates.(proc) own
        else fold_others proc actor
      in
      (Sdf.Graph.actor g actor).exec_time +. rest.Compose.w)

(* Every period below runs on the one period engine, {!Analysis.period_with},
   over a cache prepared once per call and dropped with it: nothing is kept
   per admitted entry. *)
let period_under cache entries aggregates (e : entry) =
  Analysis.period_with cache
    ~response_times:(responses_under entries aggregates e)

(* ------------------------------------------------------------------ *)
(* Confidence margins *)

(* The execution-time distribution behind an actor's load: the declared one
   when the application uses the Section 6 extension, else the paper's
   constant base model (whose residual life is uniform on [0, tau]). *)
let dist_of (e : entry) actor =
  match e.app.Analysis.distributions with
  | Some ds -> ds.(actor)
  | None ->
      Dist.Constant (Sdf.Graph.actor e.app.Analysis.graph actor).exec_time

(* Variance of one actor's blocking contribution B = Bernoulli(p) · R with
   R the residual life: E B² − (E B)² = p·E R² − (p·E R)². *)
let contribution_variance (e : entry) actor (l : Prob.t) =
  let r2 = Dist.residual_second_moment (dist_of e actor) in
  Float.max 0. ((l.p *. r2) -. ((l.p *. l.mu) *. (l.p *. l.mu)))

let margin_z cache entries aggregates ~nprocs (e : entry) ~period ~confidence =
  let g = e.app.Analysis.graph in
  let na = Sdf.Graph.num_actors g in
  let z = Margin.z_of_confidence confidence in
  (* Per-processor variance of the total inflicted wait: the contenders
     block independently, so the variances add. *)
  let var = Array.make nprocs 0. in
  List.iter
    (fun (_, o) ->
      Array.iteri
        (fun actor load ->
          let proc = o.app.Analysis.mapping.(actor) in
          var.(proc) <- var.(proc) +. contribution_variance o actor load)
        o.loads)
    entries;
  let responses = responses_under entries aggregates e in
  let resp_lo = Array.make na 0. and resp_hi = Array.make na 0. in
  for actor = 0 to na - 1 do
    let proc = e.app.Analysis.mapping.(actor) in
    let own = contribution_variance e actor e.loads.(actor) in
    let std = sqrt (Float.max 0. (var.(proc) -. own)) in
    let exec = (Sdf.Graph.actor g actor).exec_time in
    let wait = Float.max 0. (responses.(actor) -. exec) in
    resp_lo.(actor) <- exec +. Float.max 0. (wait -. (z *. std));
    resp_hi.(actor) <- exec +. wait +. (z *. std)
  done;
  let lo = Analysis.period_with cache ~response_times:resp_lo in
  let hi = Analysis.period_with cache ~response_times:resp_hi in
  Margin.of_bounds ~confidence ~period ~lo ~hi

let margin_quantile cache entries ~nprocs (e : entry) ~period ~confidence
    ~samples ~seed =
  if samples < 1 then
    invalid_arg "Contention.Admission: margin samples < 1";
  let g = e.app.Analysis.graph in
  let na = Sdf.Graph.num_actors g in
  (* Flatten the population once: every admitted actor is one independent
     blocking source; the candidate's own actors are remembered so each can
     subtract its own contribution from its processor total. *)
  let procs_of = ref [] and ps = ref [] and dists = ref [] in
  let npop = ref 0 in
  let own_slot = Array.make na (-1) in
  List.iter
    (fun (name, o) ->
      Array.iteri
        (fun actor (l : Prob.t) ->
          procs_of := o.app.Analysis.mapping.(actor) :: !procs_of;
          ps := l.p :: !ps;
          dists := dist_of o actor :: !dists;
          if name = g.Sdf.Graph.name then own_slot.(actor) <- !npop;
          incr npop)
        o.loads)
    entries;
  let npop = !npop in
  let proc_of = Array.of_list (List.rev !procs_of) in
  let p_of = Array.of_list (List.rev !ps) in
  let dist_of_slot = Array.of_list (List.rev !dists) in
  let rng = Margin.Rng.create seed in
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

let compute_margin cache entries aggregates ~nprocs (e : entry) ~period spec =
  match spec.method_ with
  | Margin.Z_score ->
      margin_z cache entries aggregates ~nprocs e ~period
        ~confidence:spec.confidence
  | Margin.Quantile ->
      margin_quantile cache entries ~nprocs e ~period
        ~confidence:spec.confidence ~samples:spec.samples ~seed:spec.seed

(* ------------------------------------------------------------------ *)
(* Aggregate maintenance *)

let add_loads aggregates (e : entry) =
  let updated = Array.copy aggregates in
  Array.iteri
    (fun actor load ->
      let proc = e.app.Analysis.mapping.(actor) in
      updated.(proc) <- Compose.combine updated.(proc) (Compose.of_load load))
    e.loads;
  updated

let entry_of app req =
  ( app.Analysis.graph.Sdf.Graph.name,
    { app; req; loads = Analysis.loads app; measured = None; ids = [||] } )

(* Keep the per-processor incremental groups in lockstep with [entries]. *)
let groups_admit t (e : entry) =
  e.ids <-
    Array.mapi
      (fun actor (l : Prob.t) ->
        let id = t.next_id in
        t.next_id <- t.next_id + 1;
        Kernel.Group.add t.groups.(e.app.Analysis.mapping.(actor)) ~id ~p:l.p
          ~mu:l.mu ~tau:l.tau;
        id)
      e.loads

let groups_withdraw t (e : entry) =
  Array.iteri
    (fun actor id ->
      Kernel.Group.remove t.groups.(e.app.Analysis.mapping.(actor)) ~id)
    e.ids;
  e.ids <- [||]

let groups_update t (e : entry) =
  Array.iteri
    (fun actor (l : Prob.t) ->
      Kernel.Group.update
        t.groups.(e.app.Analysis.mapping.(actor))
        ~id:e.ids.(actor) ~p:l.p ~mu:l.mu ~tau:l.tau)
    e.loads

(* One processor's aggregate refolded from the population in insertion
   order — O(resident actors), not O(n²). *)
let fold_proc t proc =
  List.fold_left
    (fun acc (_, e) ->
      let acc = ref acc in
      Array.iteri
        (fun actor load ->
          if e.app.Analysis.mapping.(actor) = proc then
            acc := Compose.combine !acc (Compose.of_load load))
        e.loads;
      !acc)
    Compose.empty (List.rev t.entries)

let refold_proc t proc =
  t.aggregates.(proc) <- fold_proc t proc;
  t.agg_drift.(proc) <- 0.;
  t.drift_refolds <- t.drift_refolds + 1

let drift_check t =
  for proc = 0 to t.nprocs - 1 do
    if t.agg_drift.(proc) > t.refold_bound then refold_proc t proc
  done

let try_admit ?margin t app req =
  let name, candidate = entry_of app req in
  if List.mem_assoc name t.entries then
    invalid_arg (Printf.sprintf "Contention.Admission: %S already admitted" name);
  Array.iter
    (fun proc ->
      if proc < 0 || proc >= t.nprocs then
        invalid_arg
          (Printf.sprintf "Contention.Admission: %S maps to processor %d" name proc))
    app.Analysis.mapping;
  let tentative = add_loads t.aggregates candidate in
  let population = (name, candidate) :: t.entries in
  let cache = Analysis.prepare app in
  let candidate_period = period_under cache population tentative candidate in
  let candidate_tp = 1. /. candidate_period in
  if candidate_tp < req.min_throughput then
    Rejected_candidate { estimated = candidate_tp; required = req.min_throughput }
  else
    let victim =
      List.find_map
        (fun (vname, e) ->
          (* A best-effort application has no requirement to violate, so it
             can never be a victim — skipping it keeps the scan proportional
             to the number of guaranteed applications under heavy churn. *)
          if e.req.min_throughput <= 0. then None
          else
            let tp =
              1. /. period_under (Analysis.prepare e.app) population tentative e
            in
            if tp < e.req.min_throughput then
              Some (Rejected_victim
                      { app = vname; estimated = tp; required = e.req.min_throughput })
            else None)
        t.entries
    in
    match victim with
    | Some verdict -> verdict
    | None ->
        let margin =
          match margin with
          | None -> None
          | Some spec ->
              Some
                (compute_margin cache population tentative ~nprocs:t.nprocs
                   candidate ~period:candidate_period spec)
        in
        Array.blit tentative 0 t.aggregates 0 t.nprocs;
        t.entries <- (name, candidate) :: t.entries;
        groups_admit t candidate;
        t.joins <- t.joins + 1;
        t.incremental_ops <- t.incremental_ops + Array.length candidate.loads;
        Admitted { margin }

let find t name =
  match List.assoc_opt name t.entries with
  | Some e -> e
  | None -> raise Not_found

let rebuild_aggregates t =
  Array.fill t.aggregates 0 t.nprocs Compose.empty;
  List.iter
    (fun (_, e) ->
      let updated = add_loads t.aggregates e in
      Array.blit updated 0 t.aggregates 0 t.nprocs)
    (List.rev t.entries);
  Array.fill t.agg_drift 0 t.nprocs 0.

let withdraw t name =
  let e = find t name in
  (* The ⊗ fold is only second-order associative, so ⊖ is exact only when
     undone LIFO: for the most recently admitted application the round-trip
     is exact; for older ones it is exact in p and second-order accurate in
     w, and the accumulated error is traded for a refold at the bound. *)
  let lifo = match t.entries with (n, _) :: _ -> n = name | [] -> false in
  t.entries <- List.remove_assoc name t.entries;
  groups_withdraw t e;
  t.leaves <- t.leaves + 1;
  let invertible = Array.for_all (fun (l : Prob.t) -> l.p < 1.) e.loads in
  if invertible then begin
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
    (* A saturated actor has no inverse (Eq. 8 needs P <> 1); rebuild the
       aggregates from the remaining population instead. *)
    rebuild_aggregates t;
    t.full_rebuilds <- t.full_rebuilds + 1
  end

let release t name =
  match List.assoc_opt name t.entries with
  | None -> Error (Printf.sprintf "application %S is not admitted" name)
  | Some _ ->
      withdraw t name;
      Ok ()

let observe t name ~measured_period =
  if measured_period <= 0. then
    invalid_arg "Contention.Admission.observe: non-positive period";
  let e = find t name in
  e.measured <- Some measured_period;
  let old_loads = e.loads in
  let new_loads = Analysis.loads_at_period e.app ~period:measured_period in
  e.loads <- new_loads;
  t.observes_n <- t.observes_n + 1;
  (* The kernel groups keep per-member state, so each actor is an O(n)
     deconvolve/refold delta. *)
  groups_update t e;
  let invertible = Array.for_all (fun (l : Prob.t) -> l.p < 1.) old_loads in
  if invertible then begin
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

let observed_period t name = (find t name).measured

let estimated_period t name =
  let e = find t name in
  period_under (Analysis.prepare e.app) t.entries t.aggregates e

let estimated_throughput t name = 1. /. estimated_period t name

let margin_for t spec name =
  let e = find t name in
  let cache = Analysis.prepare e.app in
  let period = period_under cache t.entries t.aggregates e in
  compute_margin cache t.entries t.aggregates ~nprocs:t.nprocs e ~period spec

let estimated_period_via t est name =
  match (est : Analysis.estimator) with
  | Analysis.Composability ->
      (* The aggregate/inverse path IS the composability estimator. *)
      estimated_period t name
  | _ ->
      let e = find t name in
      let g = e.app.Analysis.graph in
      let response =
        Array.init (Sdf.Graph.num_actors g) (fun actor ->
            let group = t.groups.(e.app.Analysis.mapping.(actor)) in
            let excluding = Some e.ids.(actor) in
            let waiting =
              match est with
              | Analysis.Worst_case -> Kernel.Group.wc_waiting group ~excluding
              | Analysis.Order m -> Kernel.Group.order_waiting group ~order:m ~excluding
              | Analysis.Exact -> Kernel.Group.exact_waiting group ~excluding
              | Analysis.Composability -> assert false
            in
            (Sdf.Graph.actor g actor).exec_time +. waiting)
      in
      Analysis.period_with (Analysis.prepare e.app) ~response_times:response

let estimated_throughput_via t est name = 1. /. estimated_period_via t est name

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

let group t ~proc =
  check_proc t proc "group";
  t.groups.(proc)
