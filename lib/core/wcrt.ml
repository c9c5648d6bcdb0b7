let waiting_time loads =
  List.fold_left (fun acc (l : Prob.t) -> acc +. l.tau) 0. loads
