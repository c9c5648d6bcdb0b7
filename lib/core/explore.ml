type assignment = (Sdf.Graph.t * Mapping.t) list

let apps_of ~procs assignment =
  List.map (fun (g, m) -> Analysis.app ~procs g ~mapping:m) assignment

let mean_ratio estimates =
  let ratios =
    List.map
      (fun (r : Analysis.estimate) -> r.period /. r.for_app.isolation_period)
      estimates
  in
  List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios)

let score ?(estimator = Analysis.Order 2) ~procs assignment =
  mean_ratio (Analysis.estimate estimator (apps_of ~procs assignment))

type outcome = {
  assignment : assignment;
  initial_score : float;
  final_score : float;
  moves : int;
  evaluations : int;
}

let improve ?(estimator = Analysis.Order 2) ?(max_moves = 32) ~procs assignment =
  if max_moves < 0 then invalid_arg "Contention.Explore.improve: negative max_moves";
  (* An application's isolation period and cache depend on its graph, not
     on its mapping: prepare each once, and let every candidate re-map it.
     The scores are bit-identical to [score]'s. *)
  let prepared =
    List.map (fun a -> (a, Analysis.prepare a)) (apps_of ~procs assignment)
  in
  let evaluations = ref 0 in
  let eval candidate =
    incr evaluations;
    mean_ratio
      (Analysis.estimate_prepared estimator
         (List.map2
            (fun (a, cache) (_, mapping) -> (Analysis.remap a ~procs ~mapping, cache))
            prepared candidate))
  in
  let initial_score = eval assignment in
  (* All (application, actor, target processor) moves that change the
     mapping. *)
  let moves_of current =
    List.concat
      (List.mapi
         (fun ai (_, m) ->
           List.concat
             (List.init (Array.length m) (fun actor ->
                  List.filter_map
                    (fun proc -> if m.(actor) = proc then None else Some (ai, actor, proc))
                    (List.init procs Fun.id))))
         current)
  in
  let apply current (ai, actor, proc) =
    List.mapi
      (fun i (g, m) ->
        if i = ai then begin
          let m' = Array.copy m in
          m'.(actor) <- proc;
          (g, m')
        end
        else (g, m))
      current
  in
  let rec descend current current_score accepted =
    if accepted >= max_moves then (current, current_score, accepted)
    else begin
      let best =
        List.fold_left
          (fun best move ->
            let candidate = apply current move in
            let s = eval candidate in
            match best with
            | Some (_, best_score) when best_score <= s -> best
            | _ when s < current_score -> Some (candidate, s)
            | best -> best)
          None (moves_of current)
      in
      match best with
      | Some (candidate, s) -> descend candidate s (accepted + 1)
      | None -> (current, current_score, accepted)
    end
  in
  let final, final_score, moves = descend assignment initial_score 0 in
  { assignment = final; initial_score; final_score; moves; evaluations = !evaluations }
