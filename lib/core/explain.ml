type contender = {
  c_app : string;
  c_actor : int;
  c_p : float;
  c_mu : float;
  c_tau : float;
}

type fold_step = { f_app : string; f_actor : int; f_p : float; f_w : float }
type sandwich = { s_order : int; s_lower : float; s_upper : float }

type actor = {
  a_index : int;
  a_name : string;
  a_proc : int;
  a_exec : float;
  a_p : float;
  a_mu : float;
  a_contenders : contender list;
  a_fold : fold_step list;
  a_sandwich : sandwich option;
  a_wait : float;
  a_response : float;
}

type app = {
  x_app : string;
  x_isolation : float;
  x_period : float;
  x_factor : float;
  x_throughput : float;
  x_margin : Margin.t option;
  x_actors : actor list;
}

type t = {
  estimator : string;
  engine : string;
  usecase : string list;
  apps : app list;
}

(* Periods come from the one period engine ({!Analysis.period_with}): the
   maximum cycle ratio of the HSDF expansion, named "mcm" in the record. *)
let engine = "mcm"

(* ------------------------------------------------------------------ *)
(* Computation: the list-based Figure-4 pass with its working kept      *)

(* The per-processor occupancy lists are built by prepending during an
   ascending (app, actor) scan, so each list runs descending and the
   estimator folds the contenders in the order the kernel's member slots
   hold them — which is what makes every recorded float bit-identical to
   the served value. *)
let occupancy (apps : Analysis.app array) =
  let by_node = Hashtbl.create 16 in
  Array.iteri
    (fun ai (a : Analysis.app) ->
      Array.iteri
        (fun actor proc ->
          let existing =
            Option.value ~default:[] (Hashtbl.find_opt by_node proc)
          in
          Hashtbl.replace by_node proc ((ai, actor) :: existing))
        a.mapping)
    apps;
  by_node

let fold_lineage names others =
  let _, rev =
    List.fold_left
      (fun (acc, steps) ((aj, actor_j), load) ->
        let acc = Compose.combine acc (Compose.of_load load) in
        ( acc,
          {
            f_app = names.(aj);
            f_actor = actor_j;
            f_p = acc.Compose.p;
            f_w = acc.Compose.w;
          }
          :: steps ))
      (Compose.empty, []) others
  in
  List.rev rev

(* Even truncations of Eq. 4 over-estimate, odd ones under-estimate
   (Section 4.1), so orders m and m+1 bracket the exact value. *)
let sandwich_for order loads wait =
  let other = Approx.waiting_time ~order:(order + 1) loads in
  if order mod 2 = 0 then { s_order = order; s_lower = other; s_upper = wait }
  else { s_order = order; s_lower = wait; s_upper = other }

let compute est (pairs : (Analysis.app * Analysis.cache) list) =
  let apps = Array.of_list (List.map fst pairs) in
  let caches = Array.of_list (List.map snd pairs) in
  let app_loads = Array.map Analysis.loads apps in
  let names =
    Array.map (fun (a : Analysis.app) -> a.graph.Sdf.Graph.name) apps
  in
  let by_node = occupancy apps in
  let explain_app ai (a : Analysis.app) =
    let n = Sdf.Graph.num_actors a.graph in
    let actors =
      List.init n (fun actor ->
          let proc = a.mapping.(actor) in
          let on_node =
            Option.value ~default:[] (Hashtbl.find_opt by_node proc)
          in
          let others =
            List.filter_map
              (fun (aj, actor_j) ->
                if aj = ai && actor_j = actor then None
                else Some ((aj, actor_j), app_loads.(aj).(actor_j)))
              on_node
          in
          let loads = List.map snd others in
          let wait = Analysis.waiting_time_for est loads in
          let own = app_loads.(ai).(actor) in
          let exec = (Sdf.Graph.actor a.graph actor).exec_time in
          {
            a_index = actor;
            a_name = (Sdf.Graph.actor a.graph actor).name;
            a_proc = proc;
            a_exec = exec;
            a_p = own.Prob.p;
            a_mu = own.Prob.mu;
            a_contenders =
              List.map
                (fun ((aj, actor_j), (l : Prob.t)) ->
                  {
                    c_app = names.(aj);
                    c_actor = actor_j;
                    c_p = l.p;
                    c_mu = l.mu;
                    c_tau = l.tau;
                  })
                others;
            a_fold =
              (match est with
              | Analysis.Composability -> fold_lineage names others
              | _ -> []);
            a_sandwich =
              (match est with
              | Analysis.Order m -> Some (sandwich_for m loads wait)
              | _ -> None);
            a_wait = wait;
            a_response = exec +. wait;
          })
    in
    let response_times =
      Array.of_list (List.map (fun x -> x.a_response) actors)
    in
    let period = Analysis.period_with caches.(ai) ~response_times in
    {
      x_app = names.(ai);
      x_isolation = a.isolation_period;
      x_period = period;
      x_factor = period /. a.isolation_period;
      x_throughput = 1. /. period;
      x_margin = None;
      x_actors = actors;
    }
  in
  {
    estimator = Analysis.estimator_name est;
    engine;
    usecase = Array.to_list names;
    apps = Array.to_list (Array.mapi explain_app apps);
  }

(* Margins are statistical, not part of the bit-identical Figure-4 working,
   so they are attached after the fact (by whoever holds the admission
   state) rather than recomputed by {!compute}. *)
let with_margins t margins =
  {
    t with
    apps =
      List.map
        (fun x ->
          match List.assoc_opt x.x_app margins with
          | None -> x
          | Some m -> { x with x_margin = Some m })
        t.apps;
  }

(* ------------------------------------------------------------------ *)
(* Verification: reproduce the estimate from the record                  *)

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let ( let* ) = Result.bind

let verify (t : t) (apps : Analysis.app list) =
  let* est = Analysis.estimator_of_name t.estimator in
  let* () =
    if t.engine = engine then Ok ()
    else Error (Printf.sprintf "unsupported period engine %S" t.engine)
  in
  let* () =
    if List.length apps = List.length t.apps then Ok ()
    else
      Error
        (Printf.sprintf "record has %d applications, use-case has %d"
           (List.length t.apps) (List.length apps))
  in
  let check what ~expect ~got =
    if same_float expect got then Ok ()
    else
      Error
        (Printf.sprintf "%s: record has %.17g, reproduction gives %.17g" what
           expect got)
  in
  List.fold_left
    (fun acc ((x : app), (a : Analysis.app)) ->
      let* () = acc in
      let name = a.graph.Sdf.Graph.name in
      let* () =
        if String.equal x.x_app name then Ok ()
        else
          Error
            (Printf.sprintf "record explains %S, use-case has %S" x.x_app name)
      in
      let* () =
        check (name ^ ": isolation period") ~expect:x.x_isolation
          ~got:a.isolation_period
      in
      let n = Sdf.Graph.num_actors a.graph in
      let* () =
        if List.length x.x_actors = n then Ok ()
        else
          Error
            (Printf.sprintf "%s: record has %d actors, graph has %d" name
               (List.length x.x_actors) n)
      in
      let own = Analysis.loads a in
      let responses = Array.make n 0. in
      let* () =
        List.fold_left
          (fun acc (ax : actor) ->
            let* () = acc in
            let where =
              Printf.sprintf "%s actor %d (%s)" name ax.a_index ax.a_name
            in
            let* () =
              if ax.a_index < 0 || ax.a_index >= n then
                Error (Printf.sprintf "%s: actor index out of range" where)
              else Ok ()
            in
            (* What the use-case states outright: the actor's name and
               processor, its execution time and its own load. *)
            let g = Sdf.Graph.actor a.graph ax.a_index in
            let proc = a.mapping.(ax.a_index) and load = own.(ax.a_index) in
            let* () =
              if String.equal ax.a_name g.name && ax.a_proc = proc then Ok ()
              else
                Error
                  (Printf.sprintf "%s: the use-case has %s on processor %d"
                     where g.name proc)
            in
            let* () =
              check (where ^ " execution time") ~expect:ax.a_exec
                ~got:g.exec_time
            in
            let* () = check (where ^ " P") ~expect:ax.a_p ~got:load.Prob.p in
            let* () = check (where ^ " mu") ~expect:ax.a_mu ~got:load.Prob.mu in
            let loads =
              List.map
                (fun c -> Prob.make ~p:c.c_p ~mu:c.c_mu ~tau:c.c_tau)
                ax.a_contenders
            in
            let wait = Analysis.waiting_time_for est loads in
            let* () =
              check (where ^ " waiting time") ~expect:ax.a_wait ~got:wait
            in
            let response = ax.a_exec +. wait in
            let* () =
              check (where ^ " response time") ~expect:ax.a_response
                ~got:response
            in
            responses.(ax.a_index) <- response;
            Ok ())
          (Ok ()) x.x_actors
      in
      let period =
        Analysis.period_with (Analysis.prepare a) ~response_times:responses
      in
      let* () = check (name ^ ": period") ~expect:x.x_period ~got:period in
      let* () =
        check (name ^ ": throughput") ~expect:x.x_throughput ~got:(1. /. period)
      in
      check
        (name ^ ": contention factor")
        ~expect:x.x_factor
        ~got:(period /. x.x_isolation))
    (Ok ())
    (List.combine t.apps apps)

(* ------------------------------------------------------------------ *)
(* Rendering                                                             *)

let num = Printf.sprintf "%.6g"

let contenders_cell = function
  | [] -> "-"
  | cs ->
      String.concat "+"
        (List.map (fun c -> Printf.sprintf "%s/%d" c.c_app c.c_actor) cs)

let render t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "use-case {%s}  estimator %s  engine %s\n"
    (String.concat "," t.usecase)
    t.estimator t.engine;
  List.iter
    (fun x ->
      Printf.bprintf buf
        "\napplication %s: isolation %s, period %s, contention factor %s, \
         throughput %s\n"
        x.x_app (num x.x_isolation) (num x.x_period) (num x.x_factor)
        (num x.x_throughput);
      (match x.x_margin with
      | None -> ()
      | Some m ->
          Printf.bprintf buf "  margin: [%s, %s] at %g%% confidence (%s)\n"
            (num m.Margin.lo) (num m.Margin.hi)
            (100. *. m.Margin.confidence)
            (Margin.method_to_string m.Margin.method_));
      let rows =
        List.map
          (fun a ->
            [
              Printf.sprintf "%d %s" a.a_index a.a_name;
              string_of_int a.a_proc;
              num a.a_exec;
              num a.a_p;
              num a.a_mu;
              num a.a_wait;
              num a.a_response;
              (match a.a_sandwich with
              | None -> "-"
              | Some s -> num (s.s_upper -. s.s_lower));
              contenders_cell a.a_contenders;
            ])
          x.x_actors
      in
      Buffer.add_string buf
        (Repro_stats.Table.render
           ~header:
             [
               "Actor"; "Proc"; "Exec"; "P"; "Mu"; "Wait"; "Response";
               "Err bound"; "Contenders";
             ]
           rows);
      List.iter
        (fun a ->
          match a.a_fold with
          | [] -> ()
          | fold ->
              Printf.bprintf buf "  fold %d %s:" a.a_index a.a_name;
              List.iter
                (fun f ->
                  Printf.bprintf buf " + %s/%d -> (P=%s, W=%s)" f.f_app
                    f.f_actor (num f.f_p) (num f.f_w))
                fold;
              Buffer.add_char buf '\n')
        x.x_actors)
    t.apps;
  Buffer.contents buf
