type t = { p : float; w : float }

let empty = { p = 0.; w = 0. }
let of_load (l : Prob.t) = { p = l.p; w = Prob.waiting_product l }

let combine a b =
  {
    p = a.p +. b.p -. (a.p *. b.p);
    w = (a.w *. (1. +. (b.p /. 2.))) +. (b.w *. (1. +. (a.p /. 2.)));
  }

let combine_all ts = List.fold_left combine empty ts

let remove ~total x =
  if x.p >= 1. then
    invalid_arg "Contention.Compose.remove: inverse undefined for p = 1";
  let p_rest = (total.p -. x.p) /. (1. -. x.p) in
  let w_rest = (total.w -. (x.w *. (1. +. (p_rest /. 2.)))) /. (1. +. (x.p /. 2.)) in
  { p = p_rest; w = w_rest }

let waiting_time loads = (combine_all (List.map of_load loads)).w
