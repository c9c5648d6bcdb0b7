type t = { seed : int; procs : int; apps : Contention.Analysis.app array }

let make ?(seed = 2007) ?(num_apps = 10) ?(procs = 10) ?params ?(spread = 0.) () =
  if num_apps < 1 then invalid_arg "Exp.Workload.make: num_apps < 1";
  if num_apps > 26 then invalid_arg "Exp.Workload.make: more than 26 applications";
  if spread < 0. || spread >= 1. then
    invalid_arg "Exp.Workload.make: spread must be in [0, 1)";
  let graphs = Sdfgen.Generator.generate_many ?params ~seed num_apps in
  let apps =
    Array.map
      (fun (g : Sdf.Graph.t) ->
        let distributions =
          if spread = 0. then None
          else
            Some
              (Array.map
                 (fun (a : Sdf.Graph.actor) ->
                   Contention.Dist.Uniform
                     {
                       lo = a.exec_time *. (1. -. spread);
                       hi = a.exec_time *. (1. +. spread);
                     })
                 g.actors)
        in
        Contention.Analysis.app ~procs ?distributions g
          ~mapping:(Contention.Mapping.modulo ~procs g))
      graphs
  in
  { seed; procs; apps }

let num_apps t = Array.length t.apps

let names t = Array.map (fun (a : Contention.Analysis.app) -> a.graph.Sdf.Graph.name) t.apps

let isolation_periods t =
  Array.map (fun (a : Contention.Analysis.app) -> a.isolation_period) t.apps

let analysis_apps t usecase =
  List.map (fun i -> t.apps.(i)) (Contention.Usecase.to_list usecase)

let sim_apps t usecase =
  Array.of_list
    (List.map
       (fun i ->
         let a = t.apps.(i) in
         { Desim.Engine.graph = a.Contention.Analysis.graph;
           mapping = a.Contention.Analysis.mapping })
       (Contention.Usecase.to_list usecase))

let sim_firing_time t usecase =
  let indices = Contention.Usecase.to_list usecase in
  let selected = Array.of_list (List.map (fun i -> t.apps.(i)) indices) in
  if
    Array.for_all
      (fun (a : Contention.Analysis.app) -> Option.is_none a.distributions)
      selected
  then None
  else
    (* One RNG per use-case, seeded from (workload seed, use-case id): every
       use-case draws an identical firing-time stream no matter which domain
       simulates it or in which order, so parallel sweeps stay bit-identical
       to sequential ones. *)
    let rng = Sdfgen.Rng.create ((t.seed * 1_000_003) + usecase) in
    Some
      (fun ~app ~actor ->
        let a = selected.(app) in
        match a.Contention.Analysis.distributions with
        | Some dists ->
            Contention.Dist.sample dists.(actor) ~u:(Sdfgen.Rng.float rng 1.)
        | None -> (Sdf.Graph.actor a.Contention.Analysis.graph actor).exec_time)

let app_index t name =
  match
    Array.find_index
      (fun (a : Contention.Analysis.app) -> a.graph.Sdf.Graph.name = name)
      t.apps
  with
  | Some i -> i
  | None -> raise Not_found

let header_prefix = "# contention-workload"

(* The applications a use-case mask ({!Contention.Usecase}) addresses. *)
let max_apps = 30

let to_string t =
  let header = Printf.sprintf "%s procs=%d seed=%d\n" header_prefix t.procs t.seed in
  let graphs =
    List.map (fun (a : Contention.Analysis.app) -> a.graph) (Array.to_list t.apps)
  in
  header ^ Sdf.Text.to_string_many graphs

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let parse_header line =
  let fields = String.split_on_char ' ' line in
  let value key =
    List.find_map
      (fun field ->
        match String.split_on_char '=' field with
        | [ k; v ] when k = key -> int_of_string_opt v
        | _ -> None)
      fields
  in
  match (value "procs", value "seed") with
  | Some procs, Some seed when procs > 0 -> Some (procs, seed)
  | _ -> None

let of_string contents =
  let first_line =
    match String.index_opt contents '\n' with
    | Some i -> String.sub contents 0 i
    | None -> contents
  in
  if not (String.length first_line >= String.length header_prefix
          && String.sub first_line 0 (String.length header_prefix) = header_prefix)
  then Error "not a contention workload file (missing header)"
  else (
    match parse_header first_line with
    | None -> Error "malformed workload header"
    | Some (procs, seed) -> (
        match Sdf.Text.of_string_many contents with
        | Error _ as e -> e
        | Ok [] -> Error "workload carries no graphs"
        | Ok graphs when List.length graphs > max_apps ->
            Error
              (Printf.sprintf
                 "workload carries %d graphs, above the %d a use-case addresses"
                 (List.length graphs) max_apps)
        | Ok graphs -> (
            let names = List.map (fun (g : Sdf.Graph.t) -> g.name) graphs in
            let shared name = List.length (List.filter (String.equal name) names) > 1 in
            match List.find_opt shared names with
            | Some name -> Error (Printf.sprintf "two graphs are named %S" name)
            | None -> (
                match
                  List.map
                    (fun g ->
                      Contention.Analysis.app ~procs g
                        ~mapping:(Contention.Mapping.modulo ~procs g))
                    graphs
                with
                | apps -> Ok { seed; procs; apps = Array.of_list apps }
                | exception Invalid_argument msg -> Error msg))))

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_string contents
