type app = Appstate.app = { graph : Sdf.Graph.t; mapping : int array }

type event =
  | Start of { time : float; app : int; actor : int; proc : int }
  | Finish of { time : float; app : int; actor : int; proc : int }

type result = Appstate.result = {
  app_name : string;
  iterations : int;
  avg_period : float;
  max_period : float;
  min_period : float;
  busy_time : float array;
}

type stats = {
  final_time : float;
  total_firings : int;
  extrapolated_firings : int;
  proc_busy : float array;
}

type arbitration = Fcfs | Fixed_priority | Static_order of (int * int) array array

(* Each processor's static order as global actor ids, after checking every
   entry against the applications. *)
let compile_orders (st : Appstate.t) orders =
  let apps = st.apps in
  if Array.length orders <> st.procs then
    invalid_arg "Desim.Engine: static order must list every processor";
  Array.mapi
    (fun proc order ->
      Array.map
        (fun (ai, actor) ->
          if ai < 0 || ai >= Array.length apps then
            invalid_arg (Printf.sprintf "Desim.Engine: order names app %d" ai);
          if actor < 0 || actor >= Sdf.Graph.num_actors apps.(ai).graph then
            invalid_arg (Printf.sprintf "Desim.Engine: order names actor %d" actor);
          if apps.(ai).mapping.(actor) <> proc then
            invalid_arg
              (Printf.sprintf "Desim.Engine: order on processor %d names actor mapped to %d"
                 proc apps.(ai).mapping.(actor));
          st.first.(ai) + actor)
        order)
    orders

(* Remove and return the queued actor the policy serves next on [p], or -1.
   FCFS takes the queue head.  Fixed priority takes the lowest global id,
   i.e. the lowest (app, actor) pair.  Static order takes the scheduled
   entry if it is queued, and otherwise waits. *)
let take_next arbitration orders (st : Appstate.t) p =
  let len = st.qlen.(p) in
  if len = 0 then -1
  else
    match arbitration with
    | Fcfs -> Appstate.take st p 0
    | Fixed_priority ->
        let best = ref 0 in
        for k = 1 to len - 1 do
          if Appstate.queued_at st p k < Appstate.queued_at st p !best then best := k
        done;
        Appstate.take st p !best
    | Static_order _ ->
        let order = orders.(p) in
        if Array.length order = 0 then -1
        else begin
          let scheduled = order.(st.order_pos.(p)) in
          let k = ref 0 in
          while !k < len && Appstate.queued_at st p !k <> scheduled do
            incr k
          done;
          if !k = len then -1
          else begin
            st.order_pos.(p) <- (st.order_pos.(p) + 1) mod Array.length order;
            Appstate.take st p !k
          end
        end

let duration f ~app ~actor =
  let tau = f ~app ~actor in
  if Float.is_finite tau && tau > 0. then tau
  else
    invalid_arg
      (Printf.sprintf "Desim.Engine: firing_time %g for app %d actor %d" tau app actor)

(* Whole periods to skip from [now] so that at least one period is left
   before the horizon.  The estimate from the division is corrected with
   exact products. *)
let periods_to_skip ~horizon ~now ~period =
  let k = ref (int_of_float ((horizon -. now) /. period) - 1) in
  while !k >= 1 && now +. (float_of_int (!k + 1) *. period) > horizon do
    decr k
  done;
  !k

(* A state seen one period ago, waiting for the period to be confirmed. *)
type candidate = { snapshot : Appstate.t; period : float }

(* Hashes kept at most.  The table restarts when full, so a period of up to
   this many iterations of app 0 is still found once the transient is over,
   and a run that never repeats holds a few MiB at most. *)
let max_seen = 1 lsl 16

let run ?(horizon = 500_000.) ?(warmup_iterations = 20) ?on_event ?firing_time
    ?(arbitration = Fcfs) ~procs apps =
  Appstate.check_horizon "Desim.Engine.run" horizon;
  let st = Appstate.compile ~procs apps in
  let orders =
    match arbitration with
    | Static_order orders -> compile_orders st orders
    | Fcfs | Fixed_priority -> [||]
  in
  let warmup = warmup_iterations in
  let start p =
    let g = take_next arbitration orders st p in
    if g >= 0 then begin
      Appstate.consume st g;
      st.status.(g) <- Appstate.running;
      let a = st.app_of.(g) in
      let tau =
        match firing_time with
        | None -> st.exec_time.(g)
        | Some f -> duration f ~app:a ~actor:(g - st.first.(a))
      in
      st.proc_busy.(p) <- st.proc_busy.(p) +. tau;
      st.busy.((a * procs) + p) <- st.busy.((a * procs) + p) +. tau;
      (match on_event with
      | None -> ()
      | Some f -> f (Start { time = st.clock.now; app = a; actor = g - st.first.(a); proc = p }));
      st.run_actor.(p) <- g;
      st.run_end.(p) <- st.clock.now +. tau;
      st.run_seq.(p) <- st.next_seq;
      st.next_seq <- st.next_seq + 1
    end
  in
  let ready g = Appstate.enqueue st g in
  let finish p =
    let g = st.run_actor.(p) in
    st.run_actor.(p) <- -1;
    st.run_end.(p) <- infinity;
    (match on_event with
    | None -> ()
    | Some f ->
        let a = st.app_of.(g) in
        f (Finish { time = st.clock.now; app = a; actor = g - st.first.(a); proc = p }));
    Appstate.complete st ~warmup ~ready g
  in
  (* Steady-state fast-forward: only without hooks and with integral
     execution times, where every event time and busy sum is an exact
     float.  At each iteration boundary of app 0 past every app's warm-up,
     the relative state's hash is looked up; a hit names a candidate
     period, which is simulated once more and confirmed by comparing the
     full state before any period is skipped. *)
  let fast_forward =
    ref
      (Option.is_none on_event && Option.is_none firing_time
      && Array.for_all Float.is_integer st.exec_time
      && horizon +. Array.fold_left Float.max 0. st.exec_time < 0x1p53)
  in
  let warm = ref false in
  let seen = Hashtbl.create 64 in
  let candidate = ref None in
  let detect () =
    let now = st.clock.now in
    match !candidate with
    | Some c ->
        let target = c.snapshot.clock.now +. c.period in
        if now >= target then begin
          candidate := None;
          if now = target && Appstate.same_state st c.snapshot then begin
            fast_forward := false;
            let periods = periods_to_skip ~horizon ~now ~period:c.period in
            if periods >= 1 then Appstate.advance st ~from:c.snapshot ~periods
          end
        end
    | None ->
        if not !warm then warm := Array.for_all (fun i -> i >= warmup) st.iterations;
        if !warm then begin
          let h = Appstate.hash st in
          match Hashtbl.find_opt seen h with
          | Some before -> candidate := Some { snapshot = Appstate.copy st; period = now -. before }
          | None ->
              if Hashtbl.length seen >= max_seen then Hashtbl.reset seen;
              Hashtbl.replace seen h now
        end
  in
  (* Boot: queue everything initially enabled, start the processors. *)
  for g = 0 to Array.length st.status - 1 do
    if Appstate.enabled st g then Appstate.enqueue st g
  done;
  for p = 0 to procs - 1 do
    start p
  done;
  let running = ref true in
  while !running do
    let p = Appstate.next_completion st in
    if p < 0 then running := false
    else if st.run_end.(p) > horizon then begin
      st.clock.now <- horizon;
      running := false
    end
    else begin
      let iterations0 = st.iterations.(0) in
      st.clock.now <- st.run_end.(p);
      finish p;
      (* Drain every completion at this same instant before any service
         decision, so arbitration sees the full state of this time. *)
      while Appstate.due_now st do
        finish (Appstate.next_completion st)
      done;
      (* Idle processors with waiting work pick their next firing.  An idle
         processor's [run_actor] is -1, all bits set, so the [land] is
         negative exactly when the processor is idle and its queue is not
         empty: one predictable branch per processor. *)
      for p = 0 to procs - 1 do
        if st.run_actor.(p) land -st.qlen.(p) < 0 then start p
      done;
      if !fast_forward && st.iterations.(0) <> iterations0 then detect ()
    end
  done;
  ( Appstate.results st,
    {
      final_time = st.clock.now;
      total_firings = st.firings;
      extrapolated_firings = st.extrapolated;
      proc_busy = st.proc_busy;
    } )

let utilisation stats =
  if stats.final_time <= 0. then Array.map (fun _ -> 0.) stats.proc_busy
  else Array.map (fun b -> b /. stats.final_time) stats.proc_busy
