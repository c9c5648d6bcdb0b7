type record = {
  app : int;
  actor : int;
  proc : int;
  start_time : float;
  finish_time : float;
}

type t = {
  mutable completed : record list;  (* reverse finish order *)
  mutable count : int;
  open_starts : (int * int, float) Hashtbl.t;
}

let create () = { completed = []; count = 0; open_starts = Hashtbl.create 64 }

let on_event t = function
  | Engine.Start { time; app; actor; _ } -> Hashtbl.replace t.open_starts (app, actor) time
  | Engine.Finish { time; app; actor; proc } -> (
      match Hashtbl.find_opt t.open_starts (app, actor) with
      | None -> ()
      | Some start_time ->
          Hashtbl.remove t.open_starts (app, actor);
          t.completed <-
            { app; actor; proc; start_time; finish_time = time } :: t.completed;
          t.count <- t.count + 1)

let records t = List.rev t.completed
let num_records t = t.count

type service_stats = {
  firings : int;
  total_busy : float;
  mean_service : float;
  mean_gap : float;
}

let actor_stats t ~app ~actor =
  let own =
    List.filter (fun r -> r.app = app && r.actor = actor) (records t)
  in
  match own with
  | [] -> raise Not_found
  | own ->
      let firings = List.length own in
      let total_busy =
        List.fold_left (fun acc r -> acc +. (r.finish_time -. r.start_time)) 0. own
      in
      let rec gaps acc = function
        | a :: (b :: _ as rest) -> gaps ((b.start_time -. a.finish_time) :: acc) rest
        | [ _ ] | [] -> acc
      in
      let gap_list = gaps [] own in
      let mean_gap =
        match gap_list with
        | [] -> nan
        | gs -> List.fold_left ( +. ) 0. gs /. float_of_int (List.length gs)
      in
      {
        firings;
        total_busy;
        mean_service = total_busy /. float_of_int firings;
        mean_gap;
      }

let proc_timeline t ~proc =
  List.sort
    (fun a b -> Float.compare a.start_time b.start_time)
    (List.filter (fun r -> r.proc = proc) (records t))

let static_order t ~procs ~window:(from_t, until_t) =
  if until_t <= from_t then invalid_arg "Desim.Trace.static_order: empty window";
  Array.init procs (fun proc ->
      let in_window =
        List.filter
          (fun r -> r.start_time >= from_t && r.start_time < until_t)
          (proc_timeline t ~proc)
      in
      Array.of_list (List.map (fun r -> (r.app, r.actor)) in_window))
