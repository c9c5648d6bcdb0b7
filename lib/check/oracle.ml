module Analysis = Contention.Analysis
module Prob = Contention.Prob

type violation = Metamorphic.violation = { property : string; detail : string }

type config = {
  sim_tolerance : float;
  comp_envelope : float;
  horizon_iterations : float;
  scaling_factor : float;
}

let default_config =
  {
    sim_tolerance = 0.02;
    comp_envelope = 2.0;
    horizon_iterations = 50.;
    scaling_factor = 2.;
  }

type outcome = { violations : violation list; errors : (string * float) list }

let estimators =
  [
    ("wc", Analysis.Worst_case);
    ("order-2", Analysis.Order 2);
    ("order-4", Analysis.Order 4);
    ("comp", Analysis.Composability);
    ("exact", Analysis.Exact);
  ]

let waiting_time_brute_force loads =
  let arr = Array.of_list loads in
  let n = Array.length arr in
  if n > 25 then invalid_arg "Check.Oracle.waiting_time_brute_force: too many actors";
  let total = ref 0. in
  for mask = 1 to (1 lsl n) - 1 do
    let prob = ref 1. and mu_sum = ref 0. and size = ref 0 in
    for i = 0 to n - 1 do
      let l = arr.(i) in
      if mask land (1 lsl i) <> 0 then begin
        prob := !prob *. l.Prob.p;
        mu_sum := !mu_sum +. l.Prob.mu;
        incr size
      end
      else prob := !prob *. (1. -. l.Prob.p)
    done;
    let s = float_of_int !size in
    total := !total +. (!prob *. (((2. *. s) -. 1.) /. s) *. !mu_sum)
  done;
  !total

let violation property fmt =
  Printf.ksprintf (fun detail -> { property; detail }) fmt

let rel_close ?(tol = 1e-9) a b =
  Float.abs (a -. b)
  <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* [ge a b] — "a >= b up to rounding", scaled like {!rel_close}. *)
let ge ?(tol = 1e-9) a b =
  a >= b -. (tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)))

let finite_positive name v acc =
  if Float.is_finite v && v >= 0. then acc
  else violation "non-finite" "%s produced %h" name v :: acc

(* ------------------------------------------------------------------ *)
(* Kernel level                                                        *)

let check_kernel ?(config = default_config) ?exact rng others =
  if others = [] then []
  else
    let exact_fn =
      match exact with Some f -> f | None -> Contention.Exact.waiting_time
    in
    let n = List.length others in
    let wc = Contention.Wcrt.waiting_time others in
    let o2 = Contention.Approx.second_order others in
    let o3 = Contention.Approx.waiting_time ~order:3 others in
    let o4 = Contention.Approx.fourth_order others in
    let o5 = Contention.Approx.waiting_time ~order:5 others in
    let ex = exact_fn others in
    let comp = Contention.Compose.waiting_time others in
    let acc = [] in
    let acc =
      List.fold_left
        (fun acc (name, v) -> finite_positive ("kernel " ^ name) v acc)
        acc
        [
          ("wc", wc); ("order-2", o2); ("order-3", o3); ("order-4", o4);
          ("order-5", o5); ("exact", ex); ("comp", comp);
        ]
    in
    let acc =
      if n > 6 then acc
      else
        let bf = waiting_time_brute_force others in
        if rel_close ~tol:1e-6 ex bf then acc
        else
          violation "exact-vs-brute-force"
            "Eq. 4 gives %.17g, subset enumeration gives %.17g (%d loads)" ex
            bf n
          :: acc
    in
    let acc =
      (* Even truncations over-estimate, odd under-estimate (Section 4.1):
         o2 >= o4 >= exact >= o5 >= o3. *)
      List.fold_left
        (fun acc (na, a, nb, b) ->
          if ge a b then acc
          else
            violation "order-sandwich" "%s (%.17g) < %s (%.17g)" na a nb b
            :: acc)
        acc
        [
          ("order-2", o2, "order-4", o4);
          ("order-4", o4, "exact", ex);
          ("exact", ex, "order-5", o5);
          ("order-5", o5, "order-3", o3);
        ]
    in
    let acc =
      (* All symmetric polynomials of degree >= n vanish, so truncating at
         order n already keeps every term of Eq. 4. *)
      let full = Contention.Approx.waiting_time ~order:(max 2 n) others in
      if rel_close full ex then acc
      else
        violation "order-n-exact"
          "order-%d truncation %.17g differs from exact %.17g" (max 2 n) full
          ex
        :: acc
    in
    let acc =
      if ge wc ex then acc
      else
        violation "wc-dominates"
          "worst case %.17g below exact expectation %.17g" wc ex
        :: acc
    in
    let acc =
      (* Provable sandwich for the ⊗ fold: every combine step satisfies
         w_a + w_b <= w_ab <= 1.5 (w_a + w_b), so the aggregate lies
         between the plain sum of waiting products and that sum times
         1.5^(n-1). *)
      let base = List.fold_left (fun s l -> s +. Prob.waiting_product l) 0. others in
      let upper = base *. Float.pow 1.5 (float_of_int (n - 1)) in
      let acc =
        if ge comp base then acc
        else
          violation "comp-bounds"
            "composability %.17g below the waiting-product sum %.17g" comp
            base
          :: acc
      in
      if ge upper comp then acc
      else
        violation "comp-bounds"
          "composability %.17g above the fold bound %.17g" comp upper
        :: acc
    in
    let acc =
      if
        Float.abs (comp -. ex)
        <= config.comp_envelope *. Float.max ex 1e-6
      then acc
      else
        violation "comp-envelope"
          "composability %.17g vs exact %.17g exceeds envelope %g" comp ex
          config.comp_envelope
        :: acc
    in
    List.rev_append acc (Metamorphic.all rng others)

(* ------------------------------------------------------------------ *)
(* Case level                                                          *)

(* The served isolation period against the references: the HSDF bisection
   within the period contract's 1e-9, self-timed execution (the one that does
   not go through [Sdf.Hsdf.expand]) within its time scaling's 1e-6, and on
   integer times the exact rational period bit for bit. *)
let engine_agreement (a : Analysis.app) acc =
  let g = a.graph and served = a.isolation_period in
  let differs acc name v =
    violation "engine-disagreement" "graph %S: served period %.17g, %s %.17g"
      g.Sdf.Graph.name served name v
    :: acc
  in
  let near acc ~tol name v =
    if rel_close ~tol served v then acc else differs acc name v
  in
  let acc = near acc ~tol:1e-9 "mcm" (Sdf.Hsdf.period g) in
  let acc = near acc ~tol:1e-6 "state-space" (Sdf.Statespace.period_exn g) in
  if Array.for_all Float.is_integer (Sdf.Graph.exec_times g) then
    let exact = Sdf.Rational.to_float (Sdf.Hsdf.period_rational g) in
    if Float.equal served exact then acc else differs acc "rational" exact
  else acc

(* The list-based Figure-4 pass: per-processor contender lists built by
   prepending during an ascending (app, actor) scan, {!Analysis.waiting_time_for}
   per actor, and the period of the HSDF expansion through {!Sdf.Mcm}.  It
   shares no code with the kernel pass beyond the load descriptors and
   expansions the caller hands in. *)
let reference est triples =
  let apps = Array.of_list (List.map (fun (a, _, _) -> a) triples) in
  let loads = Array.of_list (List.map (fun (_, l, _) -> l) triples) in
  let by_node = Hashtbl.create 16 in
  let on_node proc = Option.value ~default:[] (Hashtbl.find_opt by_node proc) in
  Array.iteri
    (fun ai (a : Analysis.app) ->
      Array.iteri
        (fun actor proc ->
          Hashtbl.replace by_node proc ((ai, actor) :: on_node proc))
        a.mapping)
    apps;
  List.mapi
    (fun ai ((a : Analysis.app), _, expansion) ->
      let waiting_times =
        Array.mapi
          (fun actor proc ->
            Analysis.waiting_time_for est
              (List.filter_map
                 (fun (aj, actor_j) ->
                   if aj = ai && actor_j = actor then None
                   else Some loads.(aj).(actor_j))
                 (on_node proc)))
          a.mapping
      in
      let response_times =
        Array.mapi
          (fun actor w -> (Sdf.Graph.actor a.graph actor).exec_time +. w)
          waiting_times
      in
      {
        Analysis.for_app = a;
        waiting_times;
        response_times;
        period = Sdf.Hsdf.period_of_expansion expansion ~exec_times:response_times;
      })
    triples

(* [got] against [expected], one estimate per app: periods, waits and
   response times must agree to 1e-9 relative. *)
let agree ~property name path got expected acc =
  let values (e : Analysis.estimate) =
    let named what a =
      List.mapi (fun i v -> (Printf.sprintf "%s.(%d)" what i, v)) (Array.to_list a)
    in
    (("period", e.period) :: named "waiting_times" e.waiting_times)
    @ named "response_times" e.response_times
  in
  List.fold_left2
    (fun acc (g : Analysis.estimate) e ->
      List.fold_left2
        (fun acc (what, gv) (_, ev) ->
          if rel_close gv ev then acc
          else
            violation property "%s %s %s of %S: %.17g, expected %.17g" name path
              what g.for_app.graph.Sdf.Graph.name gv ev
            :: acc)
        acc (values g) (values e))
    acc got expected

(* Every kernel entry point against the list-based reference, for every
   estimator, to 1e-9: one-at-a-time, a second refinement pass, and
   caller-supplied loads (those the second pass re-bases on). *)
let kernel_agreement apps acc =
  match apps with
  | [] -> acc
  | apps ->
      let caches = List.map Analysis.prepare apps in
      let pairs = List.combine apps caches in
      let expansions =
        List.map (fun (a : Analysis.app) -> Sdf.Hsdf.expand a.graph) apps
      in
      let with_loads loads =
        List.map2 (fun (a, h) l -> (a, l, h)) (List.combine apps expansions) loads
      in
      let isolation = with_loads (List.map Analysis.loads apps) in
      List.fold_left
        (fun acc (name, est) ->
          let kernel = Analysis.estimate_prepared est pairs in
          let first = reference est isolation in
          let rebased =
            List.map
              (fun (r : Analysis.estimate) ->
                Analysis.loads_at_period r.for_app ~period:r.period)
              first
          in
          let second = reference est (with_loads rebased) in
          let property = "kernel-engine" in
          acc
          |> agree ~property name "estimate_prepared" kernel first
          |> agree ~property name "estimate ~iterations:2"
               (Analysis.estimate ~iterations:2 est apps)
               second
          |> agree ~property name "estimate_with_loads"
               (Analysis.estimate_with_loads est (List.combine apps rebased))
               second)
        acc estimators

(* Per-processor load groups across the active applications; each entry is
   an actor's own load paired with the loads it competes with. *)
let contender_lists procs apps =
  let by_proc = Array.make procs [] in
  List.iter
    (fun (a : Analysis.app) ->
      let loads = Analysis.loads a in
      Array.iteri
        (fun actor load ->
          let proc = a.mapping.(actor) in
          by_proc.(proc) <- (load : Prob.t) :: by_proc.(proc))
        loads)
    apps;
  let entries = ref [] in
  Array.iter
    (fun loads ->
      let loads = List.rev loads in
      List.iteri
        (fun i _ ->
          let others = List.filteri (fun j _ -> j <> i) loads in
          if others <> [] then entries := others :: !entries)
        loads)
    by_proc;
  List.rev !entries

let check_estimates apps acc =
  let estimates =
    List.map (fun (name, est) -> (name, Analysis.estimate est apps)) estimators
  in
  let acc =
    List.fold_left
      (fun acc (name, ests) ->
        List.fold_left
          (fun acc (e : Analysis.estimate) ->
            let app_name = e.for_app.graph.Sdf.Graph.name in
            let acc =
              if Float.is_finite e.period && e.period > 0. then acc
              else
                violation "non-finite" "%s period of %S is %h" name app_name
                  e.period
                :: acc
            in
            if ge e.period e.for_app.isolation_period then acc
            else
              violation "below-isolation"
                "%s period of %S (%.17g) below isolation (%.17g)" name
                app_name e.period e.for_app.isolation_period
              :: acc)
          acc ests)
      acc estimates
  in
  (* Kernel ordering transfers to periods (cycle ratios are monotone in the
     execution times): wc >= o2 >= o4 >= exact. *)
  let by_name n = List.assoc n estimates in
  let ordered na nb acc =
    List.fold_left2
      (fun acc (ea : Analysis.estimate) (eb : Analysis.estimate) ->
        if ge ea.period eb.period then acc
        else
          violation "period-ordering" "%s period of %S (%.17g) < %s (%.17g)"
            na ea.for_app.graph.Sdf.Graph.name ea.period nb eb.period
          :: acc)
      acc (by_name na) (by_name nb)
  in
  (* "wc >= order-2" would NOT be sound: with four or more highly loaded
     contenders the order-2 bracket (1 + P/2 each) exceeds the worst case's
     factor 2, so only wc >= exact and the truncation chain are asserted. *)
  let acc = acc |> ordered "wc" "exact" |> ordered "order-2" "order-4" in
  let acc = ordered "order-4" "exact" acc in
  (estimates, acc)

let simulate config (t : Case.t) wc_estimates acc =
  let apps = Case.sim_apps t in
  let max_wc =
    List.fold_left
      (fun m (e : Analysis.estimate) -> Float.max m e.period)
      0. wc_estimates
  in
  let horizon = config.horizon_iterations *. max_wc in
  let results, _stats =
    Desim.Engine.run ~horizon ~procs:t.spec.procs apps
  in
  let selected = Array.of_list (Case.selected t) in
  let acc = ref acc in
  Array.iteri
    (fun i (r : Desim.Engine.result) ->
      let a = selected.(i) in
      let wc = (List.nth wc_estimates i : Analysis.estimate).period in
      if not (Float.is_finite r.avg_period) then
        acc :=
          violation "sim-starved"
            "app %S: %d iterations in horizon %g — no measurable period"
            r.app_name r.iterations horizon
          :: !acc
      else begin
        if not (ge ~tol:config.sim_tolerance r.avg_period a.isolation_period)
        then
          acc :=
            violation "sim-below-isolation"
              "app %S: simulated period %.17g below isolation %.17g"
              r.app_name r.avg_period a.isolation_period
            :: !acc;
        if not (ge ~tol:config.sim_tolerance wc r.avg_period) then
          acc :=
            violation "sim-above-wc"
              "app %S: simulated period %.17g above worst-case bound %.17g"
              r.app_name r.avg_period wc
            :: !acc
      end)
    results;
  (results, !acc)

let scaling_check config (t : Case.t) acc =
  let c = config.scaling_factor in
  match Case.scale_exec t c with
  | Error msg -> violation "crash" "scale_exec failed: %s" msg :: acc
  | Ok scaled ->
      let orig = Array.of_list (Case.selected t) in
      let doubled = Array.of_list (Case.selected scaled) in
      let acc = ref acc in
      Array.iteri
        (fun i (a : Analysis.app) ->
          let b = doubled.(i) in
          if not (rel_close (a.isolation_period *. c) b.isolation_period)
          then
            acc :=
              violation "scaling-isolation"
                "app %S: isolation %.17g scaled by %g gave %.17g"
                a.graph.Sdf.Graph.name a.isolation_period c
                b.isolation_period
              :: !acc)
        orig;
      let before = Analysis.estimate Analysis.Exact (Array.to_list orig) in
      let after = Analysis.estimate Analysis.Exact (Array.to_list doubled) in
      List.iter2
        (fun (e : Analysis.estimate) (e' : Analysis.estimate) ->
          if not (rel_close (e.period *. c) e'.period) then
            acc :=
              violation "scaling-estimate"
                "app %S: exact period %.17g scaled by %g gave %.17g"
                e.for_app.graph.Sdf.Graph.name e.period c e'.period
              :: !acc)
        before after;
      !acc

let check ?(config = default_config) (t : Case.t) =
  match
    let rng = Sdfgen.Rng.create (t.spec.seed lxor 0x5eed) in
    let apps = Case.selected t in
    let acc = List.fold_left (fun acc a -> engine_agreement a acc) [] apps in
    let acc =
      List.fold_left
        (fun acc others ->
          List.rev_append (check_kernel ~config rng others) acc)
        acc
        (contender_lists t.spec.procs apps)
    in
    let acc = kernel_agreement apps acc in
    let estimates, acc = check_estimates apps acc in
    let results, acc = simulate config t (List.assoc "wc" estimates) acc in
    let acc = scaling_check config t acc in
    let errors =
      if List.exists (fun (r : Desim.Engine.result) ->
             not (Float.is_finite r.avg_period))
           (Array.to_list results)
      then []
      else
        List.concat_map
          (fun (name, ests) ->
            List.mapi
              (fun i (e : Analysis.estimate) ->
                let sim = results.(i).avg_period in
                (name, Float.abs (e.period -. sim) /. sim *. 100.))
              ests)
          estimates
    in
    { violations = List.rev acc; errors }
  with
  | outcome -> outcome
  | exception e ->
      let bt = Printexc.get_backtrace () in
      {
        violations =
          [
            violation "crash" "%s%s" (Printexc.to_string e)
              (if bt = "" then "" else "\n" ^ bt);
          ];
        errors = [];
      }

(* ------------------------------------------------------------------ *)
(* Margin coverage                                                     *)

type coverage = {
  replays : int;
  covered : int;
  observed_coverage : float;
  served : Contention.Margin.t;
}

let margin_coverage ?(replays = 200) ?(slack = 0.02) ?(horizon = 50_000.)
    ?(seed = 0) ~procs ~spec ~app apps =
  if replays < 1 then invalid_arg "Check.Oracle.margin_coverage: replays < 1";
  let ctl = Contention.Admission.create ~procs () in
  List.iter
    (fun a ->
      ignore (Contention.Admission.try_admit ctl a Contention.Admission.best_effort))
    apps;
  let served = Contention.Admission.margin_for ctl spec app in
  let sim_apps =
    Array.of_list
      (List.map
         (fun (a : Analysis.app) ->
           { Desim.Engine.graph = a.graph; mapping = a.mapping })
         apps)
  in
  let dists =
    Array.of_list (List.map (fun (a : Analysis.app) -> a.distributions) apps)
  in
  let app_pos =
    let rec find i = function
      | [] ->
          invalid_arg
            (Printf.sprintf
               "Check.Oracle.margin_coverage: %S not in the population" app)
      | (a : Analysis.app) :: rest ->
          if String.equal a.graph.Sdf.Graph.name app then i
          else find (i + 1) rest
    in
    find 0 apps
  in
  let covered = ref 0 in
  let acc = ref [] in
  for rep = 1 to replays do
    (* One replay = one draw of every variable execution time = one
       Bernoulli trial of the coverage claim.  Constant-time apps replay
       identically, which degenerates to a single pass/fail — still a valid
       (if blunt) instance of the claim. *)
    let rng = Sdfgen.Rng.create ((seed * 1_000_003) + rep) in
    let firing_time ~app:ai ~actor =
      match dists.(ai) with
      | None -> (Sdf.Graph.actor sim_apps.(ai).Desim.Engine.graph actor).exec_time
      | Some ds ->
          Contention.Dist.sample ds.(actor) ~u:(Sdfgen.Rng.float rng 1.)
    in
    let results, _ = Desim.Engine.run ~horizon ~firing_time ~procs sim_apps in
    let r = results.(app_pos) in
    if not (Float.is_finite r.Desim.Engine.avg_period) then
      acc :=
        violation "margin-starved"
          "replay %d: no measurable period for %S within horizon %g" rep app
          horizon
        :: !acc
    else if Contention.Margin.covers served r.Desim.Engine.avg_period then
      incr covered
  done;
  let observed = float_of_int !covered /. float_of_int replays in
  let acc =
    if observed +. slack >= served.Contention.Margin.confidence then !acc
    else
      violation "margin-coverage"
        "%S: observed coverage %.4f over %d replays below stated confidence \
         %.4f (slack %g) for [%g, %g]"
        app observed replays served.Contention.Margin.confidence slack
        served.Contention.Margin.lo served.Contention.Margin.hi
      :: !acc
  in
  ( { replays; covered = !covered; observed_coverage = observed; served },
    List.rev acc )
