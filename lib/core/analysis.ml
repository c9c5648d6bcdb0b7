type estimator = Worst_case | Order of int | Composability | Exact

let estimator_name = function
  | Worst_case -> "worst-case"
  | Order 2 -> "second-order"
  | Order 4 -> "fourth-order"
  | Order m -> Printf.sprintf "order-%d" m
  | Composability -> "composability"
  | Exact -> "exact"

(* The M of "order-M". *)
let order_of_name s =
  if String.starts_with ~prefix:"order-" s then
    int_of_string_opt (String.sub s 6 (String.length s - 6))
  else None

let estimator_of_name s =
  match s with
  | "worst-case" -> Ok Worst_case
  | "second-order" -> Ok (Order 2)
  | "fourth-order" -> Ok (Order 4)
  | "composability" -> Ok Composability
  | "exact" -> Ok Exact
  | s -> (
      match order_of_name s with
      | Some m when m >= 2 -> Ok (Order m)
      | _ -> Error (Printf.sprintf "unknown estimator %S" s))

let estimator_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "wc" -> Ok Worst_case
  | "o2" -> Ok (Order 2)
  | "o4" -> Ok (Order 4)
  | "comp" -> Ok Composability
  | s -> (
      match estimator_of_name s with
      | Ok _ as named -> named
      | Error _ as unknown -> (
          (* "order-M" with M below 2, or a bare order M. *)
          let order =
            if String.starts_with ~prefix:"order-" s then order_of_name s
            else int_of_string_opt s
          in
          match order with
          | Some m when m >= 2 -> Ok (Order m)
          | Some m ->
              Error (Printf.sprintf "estimator order must be >= 2, got %d" m)
          | None -> unknown))

let all_paper_estimators = [ Worst_case; Order 4; Order 2; Composability ]

type app = {
  graph : Sdf.Graph.t;
  mapping : Mapping.t;
  repetition : int array;
  isolation_period : float;
  distributions : Dist.t array option;
  forms : Kernel.forms;
}

type workspace = {
  ker : Kernel.scratch;
  mutable group_of_proc : int array;  (* processor id -> group index this pass *)
  mutable gstart : int array;  (* per group: first member slot *)
  mutable gcount : int array;
  mutable gfill : int array;
  mutable app_off : int array;  (* per active app: base of its member range *)
  mutable slot : int array;  (* app_off + actor -> member slot *)
  mutable active : int array;  (* use-case's app indices, ascending *)
  mutable g_p : float array;  (* per member slot: blocking probability *)
  mutable g_mu : float array;
  mutable g_tau : float array;
  mutable g_wait : float array;
  mutable resp : float array;  (* one app's response times *)
  mutable periods : float array;  (* the last pass's, or period_with's, periods *)
}

let grow_f a n =
  if Array.length a < n then Array.make (Int.max n (2 * Array.length a)) 0. else a

let grow_i a n =
  if Array.length a < n then Array.make (Int.max n (2 * Array.length a)) 0 else a

let workspace () =
  {
    ker = Kernel.scratch ();
    group_of_proc = Array.make 16 0;
    gstart = Array.make 16 0;
    gcount = Array.make 16 0;
    gfill = Array.make 16 0;
    app_off = Array.make 16 0;
    slot = Array.make 64 0;
    active = Array.make 16 0;
    g_p = Array.make 64 0.;
    g_mu = Array.make 64 0.;
    g_tau = Array.make 64 0.;
    g_wait = Array.make 64 0.;
    resp = Array.make 32 0.;
    periods = Array.make 16 0.;
  }

let workspace_key = Domain.DLS.new_key workspace
let shared_workspace () = Domain.DLS.get workspace_key
let kernel_work () = Kernel.work (shared_workspace ()).ker

(* The HSDF expansion has a node per firing of one iteration, an edge per
   token a firing produces and one more per node chaining an actor's
   firings, so a channel's rates alone can make it run to billions.  A
   graph whose expansion would pass this many nodes and edges is refused
   before any of it is allocated. *)
let max_expansion = 1_000_000

let expand graph ~repetition =
  Obs.Span.with_ ~name:"hsdf.expand" (fun () -> Sdf.Hsdf.expand ~repetition graph)

let check_period p =
  if not (Float.is_finite p && p > 0.) then
    invalid_arg "Contention.Analysis.app: period not finite and positive"

let app ?period ?procs ?distributions graph ~mapping =
  (match procs with
  | Some procs -> Mapping.validate ~procs graph mapping
  | None ->
      if Array.length mapping <> Sdf.Graph.num_actors graph then
        invalid_arg "Contention.Analysis.app: mapping length mismatch";
      if Array.exists (fun p -> p < 0) mapping then
        invalid_arg "Contention.Analysis.app: negative processor id");
  Option.iter check_period period;
  let graph =
    match distributions with
    | None -> graph
    | Some dists ->
        if Array.length dists <> Sdf.Graph.num_actors graph then
          invalid_arg "Contention.Analysis.app: distributions length mismatch";
        Array.iter Dist.validate dists;
        (* Throughput computations run on the mean execution times. *)
        Sdf.Graph.with_exec_times graph (Array.map Dist.mean dists)
  in
  let name = graph.Sdf.Graph.name in
  let repetition = Sdf.Repetition.compute_exn graph in
  (* Summed in floats, which no rate can overflow. *)
  let size =
    Array.fold_left
      (fun n (c : Sdf.Graph.channel) ->
        n +. (float_of_int repetition.(c.src) *. float_of_int c.produce))
      (2. *. Array.fold_left (fun n q -> n +. float_of_int q) 0. repetition)
      graph.Sdf.Graph.channels
  in
  if size > float_of_int max_expansion then
    invalid_arg
      (Printf.sprintf
         "Contention.Analysis: graph %S expands to %.0f HSDF nodes and edges, \
          above the limit of %d"
         name size max_expansion);
  let h = expand graph ~repetition in
  let exec = Sdf.Graph.exec_times graph in
  let g =
    Kernel.graph (shared_workspace ()).ker ~name ~seeds:[ exec ] ~actor:h.actor
      ~src:h.src ~dst:h.dst ~delay:h.delay
  in
  if Kernel.deadlocks g then
    invalid_arg (Printf.sprintf "Contention.Analysis.app: graph %S deadlocks" name);
  let isolation_period =
    match period with
    | Some p -> p
    | None ->
        (* The seeding just certified the critical cycle at [exec]. *)
        Kernel.seeded_period g ~exec
  in
  check_period isolation_period;
  { graph; mapping; repetition; isolation_period; distributions; forms = Kernel.forms g }

let remap a ~procs ~mapping =
  Mapping.validate ~procs a.graph mapping;
  { a with mapping }

let loads_with_period a period =
  Array.init (Sdf.Graph.num_actors a.graph) (fun i ->
      match a.distributions with
      | Some dists ->
          Prob.of_distribution ~dist:dists.(i) ~repetitions:a.repetition.(i) ~period
      | None ->
          Prob.of_actor
            ~exec_time:(Sdf.Graph.actor a.graph i).exec_time
            ~repetitions:a.repetition.(i) ~period)

let loads a = loads_with_period a a.isolation_period

let loads_at_period a ~period =
  if not (Float.is_finite period && period > 0.) then
    invalid_arg "Contention.Analysis.loads_at_period: period not finite and positive";
  loads_with_period a period

type estimate = {
  for_app : app;
  waiting_times : float array;
  response_times : float array;
  period : float;
}

let throughput e = 1. /. e.period

let adjusted_graph e = Sdf.Graph.with_exec_times e.for_app.graph e.response_times

let waiting_time_for est others =
  match est with
  | Worst_case -> Wcrt.waiting_time others
  | Order m -> Approx.waiting_time ~order:m others
  | Composability -> Compose.waiting_time others
  | Exact -> Exact.waiting_time others

type cache = {
  cached_loads : Prob.t array;
  cached_exec : float array;  (* per-actor execution times, flat *)
  mcr : Kernel.graph;  (* the HSDF expansion flattened for the period search *)
}

let prepare a =
  Obs.Span.with_ ~name:"analysis.prepare"
    ~args:(fun () -> [ ("app", a.graph.Sdf.Graph.name) ])
    (fun () ->
      let cached_loads =
        Obs.Span.with_ ~name:"analysis.loads" (fun () -> loads a)
      in
      let cached_exec = Sdf.Graph.exec_times a.graph in
      let h = expand a.graph ~repetition:a.repetition in
      let mcr =
        Kernel.with_forms a.forms ~name:a.graph.Sdf.Graph.name ~actor:h.actor
          ~src:h.src ~dst:h.dst ~delay:h.delay
      in
      { cached_loads; cached_exec; mcr })

let estimate_args est n () =
  [ ("estimator", estimator_name est); ("apps", string_of_int n) ]

(* ------------------------------------------------------------------ *)
(* The Figure-4 pass over preallocated flat arrays.

   The use-case's actors are laid out as contiguous per-processor member
   slots in a reusable {!workspace}, and the {!Kernel} evaluators and
   period search run over them.  [Check.Oracle.reference] is the list-based
   statement of the same pass; the kernel replicates its waiting-time
   operation sequences, so the waits agree bit for bit, and its periods are
   exact critical-cycle ratios within the reference bisection's 1e-9. *)

(* One Figure-4 pass.  [active] lists the indices of the use-case's
   applications into [apps]/[caches]/[loads] in ascending order (the order
   the reference receives them in); [loads.(ai)] are app [ai]'s per-actor
   load descriptors.  The period of [active.(k)] is
   written to [out.(k)], the per-actor waits stay in [ws.g_wait] addressed
   through [ws.slot]/[ws.app_off].  Allocation-free once [ws] has grown to
   the workload's high-water mark. *)
let kernel_pass ws est (apps : app array) (caches : cache array)
    (loads : Prob.t array array) (active : int array) nactive
    ~(out : float array) =
  (* Member layout: one slot per (active app, actor). *)
  ws.app_off <- grow_i ws.app_off nactive;
  let nmembers = ref 0 and nprocs = ref 0 and max_actors = ref 0 in
  for k = 0 to nactive - 1 do
    let a = apps.(active.(k)) in
    let n = Array.length a.mapping in
    ws.app_off.(k) <- !nmembers;
    nmembers := !nmembers + n;
    if n > !max_actors then max_actors := n;
    for actor = 0 to n - 1 do
      if a.mapping.(actor) + 1 > !nprocs then nprocs := a.mapping.(actor) + 1
    done
  done;
  let nmembers = !nmembers in
  ws.slot <- grow_i ws.slot nmembers;
  ws.g_p <- grow_f ws.g_p nmembers;
  ws.g_mu <- grow_f ws.g_mu nmembers;
  ws.g_tau <- grow_f ws.g_tau nmembers;
  ws.g_wait <- grow_f ws.g_wait nmembers;
  ws.group_of_proc <- grow_i ws.group_of_proc !nprocs;
  ws.gstart <- grow_i ws.gstart (Int.max 1 nmembers);
  ws.gcount <- grow_i ws.gcount (Int.max 1 nmembers);
  ws.gfill <- grow_i ws.gfill (Int.max 1 nmembers);
  ws.resp <- grow_f ws.resp !max_actors;
  for p = 0 to !nprocs - 1 do
    ws.group_of_proc.(p) <- -1
  done;
  (* Group the members by processor, groups numbered in first-seen order. *)
  let ngroups = ref 0 in
  for k = 0 to nactive - 1 do
    let a = apps.(active.(k)) in
    for actor = 0 to Array.length a.mapping - 1 do
      let proc = a.mapping.(actor) in
      if ws.group_of_proc.(proc) < 0 then begin
        ws.group_of_proc.(proc) <- !ngroups;
        ws.gcount.(!ngroups) <- 0;
        incr ngroups
      end;
      let g = ws.group_of_proc.(proc) in
      ws.gcount.(g) <- ws.gcount.(g) + 1
    done
  done;
  let ngroups = !ngroups in
  let start = ref 0 in
  for g = 0 to ngroups - 1 do
    ws.gstart.(g) <- !start;
    ws.gfill.(g) <- 0;
    start := !start + ws.gcount.(g)
  done;
  (* Fill the member slots in descending (app, actor) order: the reference
     builds each per-processor contender list by prepending during an
     ascending scan, so its head is the largest (app, actor) pair and the
     fold over the others runs descending. *)
  for k = nactive - 1 downto 0 do
    let ai = active.(k) in
    let a = apps.(ai) in
    let loads = loads.(ai) in
    for actor = Array.length a.mapping - 1 downto 0 do
      let g = ws.group_of_proc.(a.mapping.(actor)) in
      let s = ws.gstart.(g) + ws.gfill.(g) in
      ws.gfill.(g) <- ws.gfill.(g) + 1;
      ws.slot.(ws.app_off.(k) + actor) <- s;
      let l = loads.(actor) in
      ws.g_p.(s) <- l.Prob.p;
      ws.g_mu.(s) <- l.Prob.mu;
      ws.g_tau.(s) <- l.Prob.tau
    done
  done;
  (* Waiting times, one evaluator call per processor group. *)
  let largest = ref 0 in
  for g = 0 to ngroups - 1 do
    if ws.gcount.(g) > !largest then largest := ws.gcount.(g)
  done;
  Kernel.reserve_group ws.ker !largest;
  (match est with
  | Worst_case ->
      for g = 0 to ngroups - 1 do
        Kernel.wc_into ~tau:ws.g_tau ~off:ws.gstart.(g) ~n:ws.gcount.(g)
          ~out:ws.g_wait
      done
  | Order m ->
      if m < 2 then invalid_arg "Contention.Approx.waiting_time: order < 2";
      for g = 0 to ngroups - 1 do
        Kernel.order_into ws.ker ~order:m ~p:ws.g_p ~mu:ws.g_mu
          ~off:ws.gstart.(g) ~n:ws.gcount.(g) ~out:ws.g_wait
      done
  | Composability ->
      for g = 0 to ngroups - 1 do
        Kernel.comp_into ~p:ws.g_p ~mu:ws.g_mu ~off:ws.gstart.(g)
          ~n:ws.gcount.(g) ~out:ws.g_wait
      done
  | Exact ->
      for g = 0 to ngroups - 1 do
        Kernel.exact_into ws.ker ~p:ws.g_p ~mu:ws.g_mu ~off:ws.gstart.(g)
          ~n:ws.gcount.(g) ~out:ws.g_wait
      done);
  (* Response times and periods per application. *)
  for k = 0 to nactive - 1 do
    let c = caches.(active.(k)) in
    for actor = 0 to Array.length c.cached_exec - 1 do
      ws.resp.(actor) <-
        c.cached_exec.(actor) +. ws.g_wait.(ws.slot.(ws.app_off.(k) + actor))
    done;
    Kernel.period_into ws.ker c.mcr ~exec:ws.resp ~exec_off:0 ~out ~out_idx:k
  done

(* Materialise estimate records for the active apps of the last
   [kernel_pass] (this part allocates; the zero-allocation entry point is
   {!estimate_periods_into}). *)
let collect_results ws (apps : app array) (caches : cache array)
    (active : int array) nactive =
  Array.to_list
    (Array.init nactive (fun k ->
         let ai = active.(k) in
         let a = apps.(ai) in
         let n = Sdf.Graph.num_actors a.graph in
         let waiting_times =
           Array.init n (fun actor ->
               ws.g_wait.(ws.slot.(ws.app_off.(k) + actor)))
         in
         let response_times =
           Array.mapi (fun actor w -> caches.(ai).cached_exec.(actor) +. w)
             waiting_times
         in
         { for_app = a; waiting_times; response_times; period = ws.periods.(k) }))

let check_caches what (apps : app array) (caches : cache array) =
  Array.iteri
    (fun i (a : app) ->
      if Array.length caches.(i).cached_loads <> Sdf.Graph.num_actors a.graph
      then invalid_arg ("Contention.Analysis." ^ what ^ ": cache/app mismatch"))
    apps

(* One pass over every application of [apps], materialised as records. *)
let pass_all ws est apps caches loads =
  let nactive = Array.length apps in
  let active = Array.init nactive Fun.id in
  ws.periods <- grow_f ws.periods nactive;
  kernel_pass ws est apps caches loads active nactive ~out:ws.periods;
  collect_results ws apps caches active nactive

let cached_loads caches = Array.map (fun c -> c.cached_loads) caches

let estimate ?(iterations = 1) est apps =
  if iterations < 1 then invalid_arg "Contention.Analysis.estimate: iterations < 1";
  match apps with
  | [] -> []
  | apps ->
      Obs.Span.with_ ~name:"analysis.estimate"
        ~args:(estimate_args est (List.length apps))
        (fun () ->
          let apps = Array.of_list apps in
          let caches = Array.map prepare apps in
          let ws = shared_workspace () in
          let rec refine pass loads_now =
            let results = pass_all ws est apps caches loads_now in
            if pass >= iterations then results
            else
              (* Fixed-point refinement: blocking probabilities from the newly
                 estimated periods (execution times stay the original tau). *)
              let next =
                Array.of_list
                  (List.map
                     (fun (r : estimate) -> loads_with_period r.for_app r.period)
                     results)
              in
              refine (pass + 1) next
          in
          refine 1 (cached_loads caches))

let estimate_prepared ?workspace:ws est pairs =
  match pairs with
  | [] -> []
  | pairs ->
      Obs.Span.with_ ~name:"analysis.estimate"
        ~args:(estimate_args est (List.length pairs))
        (fun () ->
          let apps = Array.of_list (List.map fst pairs) in
          let caches = Array.of_list (List.map snd pairs) in
          check_caches "estimate_prepared" apps caches;
          let ws = match ws with Some w -> w | None -> shared_workspace () in
          pass_all ws est apps caches (cached_loads caches))

let period_with c ~response_times =
  if Array.length response_times <> Array.length c.cached_exec then
    invalid_arg "Contention.Analysis.period_with: one response time per actor";
  let ws = shared_workspace () in
  Kernel.period_into ws.ker c.mcr ~exec:response_times ~exec_off:0
    ~out:ws.periods ~out_idx:0;
  ws.periods.(0)

(* ------------------------------------------------------------------ *)
(* Batched evaluation: many use-cases of one prepared workload. *)

type prepared = {
  papps : app array;
  pcaches : cache array;
  ploads : Prob.t array array;  (* the caches' loads, hoisted for the pass *)
}

let prepare_workload ?caches apps =
  let caches =
    match caches with Some cs -> cs | None -> Array.map prepare apps
  in
  if Array.length caches <> Array.length apps then
    invalid_arg "Contention.Analysis.prepare_workload: one cache per app";
  check_caches "prepare_workload" apps caches;
  { papps = Array.copy apps; pcaches = Array.copy caches; ploads = cached_loads caches }

let estimate_periods_into ws est (p : prepared) ~usecase ~out =
  ws.active <- grow_i ws.active (Array.length p.papps);
  let nactive = ref 0 in
  for ai = 0 to Array.length p.papps - 1 do
    if Usecase.mem ai usecase then begin
      ws.active.(!nactive) <- ai;
      incr nactive
    end
  done;
  let nactive = !nactive in
  if nactive > 0 then
    kernel_pass ws est p.papps p.pcaches p.ploads ws.active nactive ~out;
  nactive

let estimate_with_loads est pairs =
  match pairs with
  | [] -> []
  | pairs ->
      let apps = Array.of_list (List.map fst pairs) in
      let loads =
        Array.of_list
          (List.map
             (fun ((a : app), loads) ->
               if Array.length loads <> Sdf.Graph.num_actors a.graph then
                 invalid_arg "Contention.Analysis.estimate_with_loads: length mismatch";
               loads)
             pairs)
      in
      pass_all (shared_workspace ()) est apps (Array.map prepare apps) loads

let estimate_calibrated est measured =
  estimate_with_loads est
    (List.map
       (fun (a, period) ->
         if not (Float.is_finite period && period > 0.) then
           invalid_arg
             "Contention.Analysis.estimate_calibrated: period not finite and positive";
         (a, loads_with_period a period))
       measured)
