type bounds = { lower : Prob.t; upper : Prob.t }

let validate (b : bounds) =
  if b.lower.p > b.upper.p || b.lower.mu > b.upper.mu then
    invalid_arg "Contention.Interval: inverted bounds"

let of_load ?(p_margin = 0.1) ?(mu_margin = 0.1) (l : Prob.t) =
  if p_margin < 0. || mu_margin < 0. then
    invalid_arg "Contention.Interval.of_load: negative margin";
  let lower =
    Prob.make
      ~p:(Float.max 0. (l.p *. (1. -. p_margin)))
      ~mu:(l.mu *. (1. -. Float.min 1. mu_margin))
      ~tau:(l.tau *. (1. -. Float.min 1. mu_margin))
  in
  let upper =
    Prob.make
      ~p:(Float.min 1. (l.p *. (1. +. p_margin)))
      ~mu:(l.mu *. (1. +. mu_margin))
      ~tau:(l.tau *. (1. +. mu_margin))
  in
  { lower; upper }

let waiting_interval est bounds_list =
  List.iter validate bounds_list;
  let lo = Analysis.waiting_time_for est (List.map (fun b -> b.lower) bounds_list) in
  let hi = Analysis.waiting_time_for est (List.map (fun b -> b.upper) bounds_list) in
  (lo, hi)

let period_interval est apps_with_bounds =
  let side pick =
    Analysis.estimate_with_loads est
      (List.map
         (fun ((a : Analysis.app), bounds) ->
           if Array.length bounds <> Sdf.Graph.num_actors a.Analysis.graph then
             invalid_arg "Contention.Interval.period_interval: bounds length mismatch";
           Array.iter validate bounds;
           (a, Array.map pick bounds))
         apps_with_bounds)
  in
  let lows = side (fun b -> b.lower) and highs = side (fun b -> b.upper) in
  List.map2
    (fun (lo : Analysis.estimate) (hi : Analysis.estimate) ->
      (lo.Analysis.for_app, (lo.Analysis.period, hi.Analysis.period)))
    lows highs
