let series_coefficient j = (if j mod 2 = 1 then 1. else -1.) /. float_of_int (j + 1)

let waiting_time loads =
  match loads with
  | [] -> 0.
  | loads ->
      let ps = Array.of_list (List.map (fun (l : Prob.t) -> l.p) loads) in
      let es = Sympoly.all ps in
      let n = Array.length ps in
      (* Guarded removal by index ({!Sympoly.remove}): the plain deconvolution
         cancels catastrophically when one load dominates a degree, and the
         guard recomputes from the elements it is given. *)
      let acc = ref 0. in
      List.iteri
        (fun i (l : Prob.t) ->
          let others = Sympoly.remove ~xs:ps ~skip:i es in
          let series = ref 1. in
          for j = 1 to n - 1 do
            series := !series +. (series_coefficient j *. others.(j))
          done;
          acc := !acc +. (Prob.waiting_product l *. !series))
        loads;
      !acc
