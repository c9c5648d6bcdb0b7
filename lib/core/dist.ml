type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Discrete of (float * float) list
  | Exponential of { mean : float }

let validate = function
  | Constant v ->
      if v <= 0. then invalid_arg "Contention.Dist: non-positive constant"
  | Uniform { lo; hi } ->
      if lo <= 0. || hi < lo then invalid_arg "Contention.Dist: bad uniform bounds"
  | Discrete [] -> invalid_arg "Contention.Dist: empty discrete distribution"
  | Discrete pairs ->
      List.iter
        (fun (v, w) ->
          if v <= 0. then invalid_arg "Contention.Dist: non-positive discrete value";
          if w < 0. then invalid_arg "Contention.Dist: negative weight")
        pairs;
      if List.fold_left (fun acc (_, w) -> acc +. w) 0. pairs <= 0. then
        invalid_arg "Contention.Dist: zero total weight"
  | Exponential { mean } ->
      if mean <= 0. then invalid_arg "Contention.Dist: non-positive mean"

let discrete_moment pairs power =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. pairs in
  List.fold_left (fun acc (v, w) -> acc +. (w *. (v ** power))) 0. pairs /. total

let mean d =
  validate d;
  match d with
  | Constant v -> v
  | Uniform { lo; hi } -> 0.5 *. (lo +. hi)
  | Discrete pairs -> discrete_moment pairs 1.
  | Exponential { mean } -> mean

let second_moment d =
  validate d;
  match d with
  | Constant v -> v *. v
  | Uniform { lo; hi } ->
      (* E X^2 = (hi^3 - lo^3) / (3 (hi - lo)), with the degenerate case. *)
      if hi = lo then lo *. lo
      else ((hi ** 3.) -. (lo ** 3.)) /. (3. *. (hi -. lo))
  | Discrete pairs -> discrete_moment pairs 2.
  | Exponential { mean } -> 2. *. mean *. mean

let third_moment d =
  validate d;
  match d with
  | Constant v -> v *. v *. v
  | Uniform { lo; hi } ->
      (* E X^3 = (hi^4 - lo^4) / (4 (hi - lo)), with the degenerate case. *)
      if hi = lo then lo *. lo *. lo
      else ((hi ** 4.) -. (lo ** 4.)) /. (4. *. (hi -. lo))
  | Discrete pairs -> discrete_moment pairs 3.
  | Exponential { mean } -> 6. *. mean *. mean *. mean

let residual d = second_moment d /. (2. *. mean d)

(* The stationary residual life R has density S(t) / E X, so
   E R^2 = integral t^2 S(t) dt / E X = E X^3 / (3 E X). *)
let residual_second_moment d = third_moment d /. (3. *. mean d)

let residual_sample d ~u1 ~u2 =
  validate d;
  if u1 < 0. || u1 >= 1. then
    invalid_arg "Contention.Dist.residual_sample: u1 outside [0,1)";
  if u2 < 0. || u2 >= 1. then
    invalid_arg "Contention.Dist.residual_sample: u2 outside [0,1)";
  (* Draw the firing the observer lands in from the length-biased
     distribution (density x f(x) / E X) with [u1], then a uniform position
     inside it with [u2] — the inspection-paradox construction of the
     stationary residual.  The exponential is memoryless, so its residual is
     itself exponential. *)
  match d with
  | Constant v -> u2 *. v
  | Uniform { lo; hi } ->
      if hi = lo then u2 *. lo
      else
        let x = sqrt ((lo *. lo) +. (u1 *. ((hi *. hi) -. (lo *. lo)))) in
        u2 *. x
  | Discrete pairs ->
      let total = List.fold_left (fun acc (v, w) -> acc +. (w *. v)) 0. pairs in
      let target = u1 *. total in
      let rec pick acc = function
        | [] -> assert false
        | [ (v, _) ] -> v
        | (v, w) :: rest ->
            if acc +. (w *. v) > target then v else pick (acc +. (w *. v)) rest
      in
      u2 *. pick 0. pairs
  | Exponential { mean } -> -.mean *. log (1. -. u1)

let sample d ~u =
  validate d;
  if u < 0. || u >= 1. then invalid_arg "Contention.Dist.sample: u outside [0,1)";
  match d with
  | Constant v -> v
  | Uniform { lo; hi } -> lo +. (u *. (hi -. lo))
  | Discrete pairs ->
      let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. pairs in
      let target = u *. total in
      let rec pick acc = function
        | [] -> assert false
        | [ (v, _) ] -> v
        | (v, w) :: rest -> if acc +. w > target then v else pick (acc +. w) rest
      in
      pick 0. pairs
  | Exponential { mean } -> -.mean *. log (1. -. u)
