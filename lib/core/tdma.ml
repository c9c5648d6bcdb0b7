let response_time ~exec ~slice ~wheel =
  if exec <= 0. then invalid_arg "Contention.Tdma.response_time: exec <= 0";
  if slice <= 0. || slice > wheel then
    invalid_arg "Contention.Tdma.response_time: slice outside (0, wheel]";
  let slices = Float.ceil (exec /. slice) in
  exec +. (slices *. (wheel -. slice))

let estimate ?(wheel = 100.) apps =
  if wheel <= 0. then invalid_arg "Contention.Tdma.estimate: wheel <= 0";
  match apps with
  | [] -> []
  | apps ->
      let apps_arr = Array.of_list apps in
      (* Actors sharing each node: the slice is the wheel divided by their
         count (one slice per mapped actor). *)
      let sharers = Hashtbl.create 16 in
      Array.iter
        (fun (a : Analysis.app) ->
          Array.iter
            (fun proc ->
              let existing = Option.value ~default:0 (Hashtbl.find_opt sharers proc) in
              Hashtbl.replace sharers proc (existing + 1))
            a.mapping)
        apps_arr;
      let estimate_one (a : Analysis.app) =
        let n = Sdf.Graph.num_actors a.graph in
        let response_times =
          Array.init n (fun actor ->
              let proc = a.mapping.(actor) in
              let count = Option.value ~default:0 (Hashtbl.find_opt sharers proc) in
              let exec = (Sdf.Graph.actor a.graph actor).exec_time in
              if count <= 1 then exec
              else
                response_time ~exec ~slice:(wheel /. float_of_int count) ~wheel)
        in
        let waiting_times =
          Array.mapi
            (fun actor r -> r -. (Sdf.Graph.actor a.graph actor).exec_time)
            response_times
        in
        {
          Analysis.for_app = a;
          waiting_times;
          response_times;
          period = Analysis.period_with (Analysis.prepare a) ~response_times;
        }
      in
      Array.to_list (Array.map estimate_one apps_arr)
