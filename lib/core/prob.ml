type t = { p : float; mu : float; tau : float }

let make ~p ~mu ~tau =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Contention.Prob.make: probability %g outside [0,1]" p);
  if mu < 0. then invalid_arg (Printf.sprintf "Contention.Prob.make: negative mu %g" mu);
  if tau < 0. then invalid_arg (Printf.sprintf "Contention.Prob.make: negative tau %g" tau);
  { p; mu; tau }

let of_actor ~exec_time ~repetitions ~period =
  if exec_time <= 0. then invalid_arg "Contention.Prob.of_actor: exec_time <= 0";
  if repetitions <= 0 then invalid_arg "Contention.Prob.of_actor: repetitions <= 0";
  if not (Float.is_finite period && period > 0.) then
    invalid_arg "Contention.Prob.of_actor: period not finite and positive";
  let p = Float.min 1. (exec_time *. float_of_int repetitions /. period) in
  { p; mu = exec_time /. 2.; tau = exec_time }

let of_distribution ~dist ~repetitions ~period =
  if repetitions <= 0 then invalid_arg "Contention.Prob.of_distribution: repetitions <= 0";
  if not (Float.is_finite period && period > 0.) then
    invalid_arg "Contention.Prob.of_distribution: period not finite and positive";
  let m = Dist.mean dist in
  let p = Float.min 1. (m *. float_of_int repetitions /. period) in
  { p; mu = Dist.residual dist; tau = m }

let waiting_product t = t.mu *. t.p
