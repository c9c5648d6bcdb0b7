type error = Inconsistent of Graph.channel | Disconnected

let pp_error ppf = function
  | Inconsistent (c : Graph.channel) ->
      Format.fprintf ppf "inconsistent balance equation on channel %d -> %d" c.src c.dst
  | Disconnected -> Format.fprintf ppf "graph is not (weakly) connected"

exception Failed of error

(* Propagate provisional rational firing rates from actor 0 along channels in
   both directions; a cross-edge whose balance equation disagrees with the
   propagated rates witnesses inconsistency. *)
let solve g =
  let n = Graph.num_actors g in
  let rate = Array.make n None in
  rate.(0) <- Some Rational.one;
  let queue = Queue.create () in
  Queue.add 0 queue;
  let relate ~known ~unknown ratio =
    (* rate(unknown) = rate(known) * ratio *)
    match rate.(known) with
    | None -> assert false
    | Some r -> (
        let v = Rational.mul r ratio in
        match rate.(unknown) with
        | None ->
            rate.(unknown) <- Some v;
            Queue.add unknown queue
        | Some existing -> if not (Rational.equal existing v) then raise Exit)
  in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    Array.iter
      (fun (c : Graph.channel) ->
        let ratio_fwd = Rational.make c.produce c.consume in
        try
          if c.src = id && rate.(c.dst) = None then
            relate ~known:c.src ~unknown:c.dst ratio_fwd
          else if c.dst = id && rate.(c.src) = None then
            relate ~known:c.dst ~unknown:c.src (Rational.inv ratio_fwd)
          else if c.src = id || c.dst = id then
            (* Both ends known: verify the balance equation. *)
            match rate.(c.src), rate.(c.dst) with
            | Some rs, Some rd ->
                if not (Rational.equal (Rational.mul rs ratio_fwd) rd) then raise Exit
            | _ -> ()
        with Exit -> raise (Failed (Inconsistent c)))
      g.channels
  done;
  let rates =
    Array.map (function Some r -> r | None -> raise (Failed Disconnected)) rate
  in
  (* Scale to the smallest positive integer vector. *)
  let den_lcm =
    Array.fold_left (fun acc (r : Rational.t) -> Rational.lcm acc r.den) 1 rates
  in
  let ints =
    Array.map (fun r -> Rational.to_int_exn (Rational.mul r (Rational.of_int den_lcm))) rates
  in
  let g0 = Array.fold_left (fun acc v -> Rational.gcd acc v) 0 ints in
  Array.map (fun v -> v / g0) ints

let compute g =
  if Graph.num_actors g = 0 then Ok [||]
  else
    match solve g with
    | q -> Ok q
    | exception Failed e -> Error e

let compute_exn g =
  match compute g with
  | Ok q -> q
  | Error e -> invalid_arg (Format.asprintf "Sdf.Repetition: %a" pp_error e)

let is_consistent g = Result.is_ok (compute g)
