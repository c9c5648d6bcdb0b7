let slice_of ~wheel ~sharers =
  if wheel <= 0. then invalid_arg "Desim.Preemptive.slice_of: wheel <= 0";
  if sharers <= 0 then invalid_arg "Desim.Preemptive.slice_of: sharers <= 0";
  wheel /. float_of_int sharers

(* Per-processor TDMA state.  Every actor mapped on the processor owns one
   slice per wheel revolution (matching Contention.Tdma).  The simulation is
   event driven: slice boundaries and in-slice completions interleave in
   global time order, so an actor enabled mid-slice by a completion on
   another processor starts immediately — exactly the freedom the analytical
   worst-case model grants. *)
type running = {
  slot : int;  (* owner slot index *)
  started : float;
  remaining : float;  (* at [started] *)
}

type proc_state = {
  owners : int array;  (* global actor owning each slice *)
  slice : float;
  paused : float array;  (* remaining work per owner slot; 0 = none *)
  pending : float array;  (* arrival time per owner slot; nan = none *)
  mutable slot_index : int;
  mutable slice_end : float;
  mutable running : running option;
  mutable generation : int;  (* invalidates scheduled completion events *)
}

type event = Boundary of int | Completion of int * int  (* proc, generation *)

let run ?(horizon = 500_000.) ?(warmup_iterations = 20) ?on_event ~wheel ~procs apps =
  Appstate.check_horizon "Desim.Preemptive.run" horizon;
  if wheel <= 0. then invalid_arg "Desim.Preemptive.run: wheel <= 0";
  let st = Appstate.compile ~procs apps in
  let actors = Array.length st.status in
  (* Owner slot of each actor on its processor's wheel. *)
  let slot_of = Array.make actors 0 in
  let proc_states =
    Array.init procs (fun proc ->
        let owners =
          Array.of_list (List.filter (fun g -> st.proc_of.(g) = proc) (List.init actors Fun.id))
        in
        Array.iteri (fun slot g -> slot_of.(g) <- slot) owners;
        let sharers = Int.max 1 (Array.length owners) in
        let slice = slice_of ~wheel ~sharers in
        {
          owners;
          slice;
          paused = Array.make sharers 0.;
          pending = Array.make sharers nan;
          slot_index = 0;
          slice_end = slice;
          running = None;
          generation = 0;
        })
  in
  let heap : event Heap.t = Heap.create () in
  for proc = 0 to procs - 1 do
    Heap.push heap ~time:proc_states.(proc).slice (Boundary proc)
  done;
  (* Begin executing [remaining] units of the current slot's work at [time];
     schedule the completion when it fits in the slice (the boundary event
     handles the pause otherwise). *)
  let start_segment proc time remaining =
    let ps = proc_states.(proc) in
    ps.generation <- ps.generation + 1;
    ps.running <- Some { slot = ps.slot_index; started = time; remaining };
    if time +. remaining <= ps.slice_end +. 1e-9 then
      Heap.push heap ~time:(time +. remaining) (Completion (proc, ps.generation))
  in
  let emit e = match on_event with Some f -> f e | None -> () in
  let app_actor g = (st.app_of.(g), g - st.first.(st.app_of.(g))) in
  (* Occupy the current slot of [proc] at [time] if work is available:
     paused work first, then a pending arrival that has already happened. *)
  let try_start proc time =
    let ps = proc_states.(proc) in
    if ps.running = None && Array.length ps.owners > 0 then begin
      let slot = ps.slot_index in
      if ps.paused.(slot) > 0. then begin
        let remaining = ps.paused.(slot) in
        ps.paused.(slot) <- 0.;
        start_segment proc time remaining
      end
      else if (not (Float.is_nan ps.pending.(slot))) && ps.pending.(slot) <= time +. 1e-9
      then begin
        ps.pending.(slot) <- nan;
        let g = ps.owners.(slot) in
        let app, actor = app_actor g in
        emit (Engine.Start { time; app; actor; proc });
        start_segment proc time st.exec_time.(g)
      end
    end
  in
  (* An actor becomes ready: record the arrival and start it at once when its
     slice is currently open and idle. *)
  let arrive g =
    let time = st.clock.now in
    st.status.(g) <- Appstate.running;
    Appstate.consume st g;
    let proc = st.proc_of.(g) in
    let ps = proc_states.(proc) in
    let slot = slot_of.(g) in
    ps.pending.(slot) <- time;
    if ps.slot_index = slot then try_start proc time
  in
  let account proc g spent =
    let b = (st.app_of.(g) * procs) + proc in
    st.proc_busy.(proc) <- st.proc_busy.(proc) +. spent;
    st.busy.(b) <- st.busy.(b) +. spent
  in
  let finish_and_propagate proc slot =
    let g = proc_states.(proc).owners.(slot) in
    let app, actor = app_actor g in
    emit (Engine.Finish { time = st.clock.now; app; actor; proc });
    Appstate.complete st ~warmup:warmup_iterations ~ready:arrive g
  in
  let complete proc time =
    let ps = proc_states.(proc) in
    match ps.running with
    | None -> assert false
    | Some r ->
        account proc ps.owners.(r.slot) r.remaining;
        ps.running <- None;
        ps.generation <- ps.generation + 1;
        finish_and_propagate proc r.slot;
        (* The freed slot may immediately serve the actor's next firing. *)
        try_start proc time
  in
  let boundary proc time =
    let ps = proc_states.(proc) in
    (* Settle the running segment first, but defer the completion
       propagation until after the wheel has rotated: re-enabling the
       finished actor must not let it steal the next owner's slice. *)
    let completed_slot = ref None in
    if Array.length ps.owners > 0 then begin
      (match ps.running with
      | Some r ->
          let elapsed = time -. r.started in
          let remaining = r.remaining -. elapsed in
          account proc ps.owners.(r.slot) elapsed;
          ps.running <- None;
          ps.generation <- ps.generation + 1;
          if remaining <= 1e-9 then
            (* Finished exactly at the boundary; its completion event at this
               instant is stale, so settle it here. *)
            completed_slot := Some r.slot
          else ps.paused.(r.slot) <- remaining
      | None -> ());
      ps.slot_index <- (ps.slot_index + 1) mod Array.length ps.owners
    end;
    ps.slice_end <- time +. ps.slice;
    Heap.push heap ~time:ps.slice_end (Boundary proc);
    (match !completed_slot with
    | Some slot -> finish_and_propagate proc slot
    | None -> ());
    try_start proc time
  in
  (* Boot: everything initially enabled arrives at time 0. *)
  for g = 0 to actors - 1 do
    if Appstate.enabled st g then arrive g
  done;
  let continue = ref true in
  while !continue do
    match Heap.pop heap with
    | None -> continue := false
    | Some (time, _) when time > horizon ->
        st.clock.now <- horizon;
        continue := false
    | Some (time, Boundary proc) ->
        st.clock.now <- time;
        boundary proc time
    | Some (time, Completion (proc, generation)) ->
        st.clock.now <- time;
        if proc_states.(proc).generation = generation then complete proc time
  done;
  ( Appstate.results st,
    {
      Engine.final_time = st.clock.now;
      total_firings = st.firings;
      extrapolated_firings = 0;
      proc_busy = st.proc_busy;
    } )
