type app = { graph : Sdf.Graph.t; mapping : int array }

type result = {
  app_name : string;
  iterations : int;
  avg_period : float;
  max_period : float;
  min_period : float;
  busy_time : float array;
}

type clock = { mutable now : float }

let idle = 0
let queued = 1
let running = 2

type t = {
  procs : int;
  apps : app array;
  first : int array;
  app_of : int array;
  proc_of : int array;
  exec_time : float array;
  in_first : int array;
  in_chan : int array;
  in_rate : int array;
  out_first : int array;
  out_chan : int array;
  out_rate : int array;
  out_dst : int array;
  q0 : int array;
  clock : clock;
  tokens : int array;
  status : int array;
  phase0 : int array;
  qfirst : int array;
  queue : int array;
  qhead : int array;
  qlen : int array;
  run_actor : int array;
  run_end : float array;
  run_seq : int array;
  mutable next_seq : int;
  order_pos : int array;
  iterations : int array;
  kept_count : int array;
  kept_first : float array;
  last_completion : float array;
  max_gap : float array;
  min_gap : float array;
  busy : float array;
  proc_busy : float array;
  mutable firings : int;
  mutable extrapolated : int;
}

let validate ~procs ~index (a : app) =
  let n = Sdf.Graph.num_actors a.graph in
  if Array.length a.mapping <> n then
    invalid_arg
      (Printf.sprintf "Desim: app %d mapping length %d <> %d actors" index
         (Array.length a.mapping) n);
  Array.iter
    (fun p ->
      if p < 0 || p >= procs then
        invalid_arg (Printf.sprintf "Desim: app %d maps to processor %d" index p))
    a.mapping

let check_horizon who horizon =
  if not (Float.is_finite horizon && horizon > 0.) then
    invalid_arg (Printf.sprintf "%s: horizon %g is not finite and positive" who horizon)

(* Row starts of a CSR array whose row [i] holds [counts.(i)] entries. *)
let row_starts counts =
  let first = Array.make (Array.length counts + 1) 0 in
  Array.iteri (fun i c -> first.(i + 1) <- first.(i) + c) counts;
  first

let compile ~procs apps =
  if Array.length apps = 0 then invalid_arg "Desim: no applications";
  if procs < 1 then invalid_arg "Desim: procs < 1";
  Array.iteri (fun index a -> validate ~procs ~index a) apps;
  let napps = Array.length apps in
  let q0 = Array.map (fun a -> (Sdf.Repetition.compute_exn a.graph).(0)) apps in
  let first = row_starts (Array.map (fun a -> Sdf.Graph.num_actors a.graph) apps) in
  let chan_first = row_starts (Array.map (fun a -> Array.length a.graph.channels) apps) in
  let n = first.(napps) and nc = chan_first.(napps) in
  let app_of = Array.make n 0 and proc_of = Array.make n 0 in
  let exec_time = Array.make n 0. and tokens = Array.make nc 0 in
  let ins = Array.make n 0 and outs = Array.make n 0 and on_proc = Array.make procs 0 in
  Array.iteri
    (fun a app ->
      Array.iteri
        (fun i p ->
          let g = first.(a) + i in
          app_of.(g) <- a;
          proc_of.(g) <- p;
          exec_time.(g) <- (Sdf.Graph.actor app.graph i).exec_time;
          on_proc.(p) <- on_proc.(p) + 1)
        app.mapping;
      Array.iteri
        (fun ci (c : Sdf.Graph.channel) ->
          tokens.(chan_first.(a) + ci) <- c.tokens;
          ins.(first.(a) + c.dst) <- ins.(first.(a) + c.dst) + 1;
          outs.(first.(a) + c.src) <- outs.(first.(a) + c.src) + 1)
        app.graph.channels)
    apps;
  let in_first = row_starts ins and out_first = row_starts outs in
  let in_chan = Array.make nc 0 and in_rate = Array.make nc 0 in
  let out_chan = Array.make nc 0 and out_rate = Array.make nc 0 and out_dst = Array.make nc 0 in
  let in_fill = Array.sub in_first 0 n and out_fill = Array.sub out_first 0 n in
  Array.iteri
    (fun a app ->
      Array.iteri
        (fun ci (c : Sdf.Graph.channel) ->
          let chan = chan_first.(a) + ci and src = first.(a) + c.src and dst = first.(a) + c.dst in
          let e = in_fill.(dst) in
          in_fill.(dst) <- e + 1;
          in_chan.(e) <- chan;
          in_rate.(e) <- c.consume;
          let e = out_fill.(src) in
          out_fill.(src) <- e + 1;
          out_chan.(e) <- chan;
          out_rate.(e) <- c.produce;
          out_dst.(e) <- dst)
        app.graph.channels)
    apps;
  {
    procs;
    apps;
    first;
    app_of;
    proc_of;
    exec_time;
    in_first;
    in_chan;
    in_rate;
    out_first;
    out_chan;
    out_rate;
    out_dst;
    q0;
    clock = { now = 0. };
    tokens;
    status = Array.make n idle;
    phase0 = Array.make napps 0;
    qfirst = row_starts on_proc;
    queue = Array.make n (-1);
    qhead = Array.make procs 0;
    qlen = Array.make procs 0;
    run_actor = Array.make procs (-1);
    run_end = Array.make procs infinity;
    run_seq = Array.make procs 0;
    next_seq = 0;
    order_pos = Array.make procs 0;
    iterations = Array.make napps 0;
    kept_count = Array.make napps 0;
    kept_first = Array.make napps nan;
    last_completion = Array.make napps nan;
    max_gap = Array.make napps nan;
    min_gap = Array.make napps nan;
    busy = Array.make (napps * procs) 0.;
    proc_busy = Array.make procs 0.;
    firings = 0;
    extrapolated = 0;
  }

(* The small functions an engine calls on every firing are marked
   [@inline]: without it the compiler does not inline them across modules,
   and the calls cost about a tenth of a firing. *)

let rec inputs_ready st e stop =
  e >= stop || (st.tokens.(st.in_chan.(e)) >= st.in_rate.(e) && inputs_ready st (e + 1) stop)

let[@inline] enabled st g = st.status.(g) = idle && inputs_ready st st.in_first.(g) st.in_first.(g + 1)

let[@inline] consume st g =
  for e = st.in_first.(g) to st.in_first.(g + 1) - 1 do
    let c = st.in_chan.(e) in
    st.tokens.(c) <- st.tokens.(c) - st.in_rate.(e)
  done

let record_iteration st ~warmup a =
  let time = st.clock.now in
  st.iterations.(a) <- st.iterations.(a) + 1;
  if st.iterations.(a) > warmup then begin
    if st.kept_count.(a) = 0 then st.kept_first.(a) <- time
    else begin
      let gap = time -. st.last_completion.(a) in
      if Float.is_nan st.max_gap.(a) || gap > st.max_gap.(a) then st.max_gap.(a) <- gap;
      if Float.is_nan st.min_gap.(a) || gap < st.min_gap.(a) then st.min_gap.(a) <- gap
    end;
    st.kept_count.(a) <- st.kept_count.(a) + 1
  end;
  st.last_completion.(a) <- time

let complete st ~warmup ~ready g =
  for e = st.out_first.(g) to st.out_first.(g + 1) - 1 do
    let c = st.out_chan.(e) in
    st.tokens.(c) <- st.tokens.(c) + st.out_rate.(e)
  done;
  st.status.(g) <- idle;
  st.firings <- st.firings + 1;
  let a = st.app_of.(g) in
  if g = st.first.(a) then begin
    let phase = st.phase0.(a) + 1 in
    if phase = st.q0.(a) then begin
      st.phase0.(a) <- 0;
      record_iteration st ~warmup a
    end
    else st.phase0.(a) <- phase
  end;
  if enabled st g then ready g;
  for e = st.out_first.(g) to st.out_first.(g + 1) - 1 do
    let d = st.out_dst.(e) in
    if enabled st d then ready d
  done

(* Index in [queue] of the [k]-th entry of processor [p]'s ring. *)
let[@inline] slot st p k =
  let cap = st.qfirst.(p + 1) - st.qfirst.(p) in
  let i = st.qhead.(p) + k in
  st.qfirst.(p) + if i >= cap then i - cap else i

let[@inline] enqueue st g =
  st.status.(g) <- queued;
  let p = st.proc_of.(g) in
  st.queue.(slot st p st.qlen.(p)) <- g;
  st.qlen.(p) <- st.qlen.(p) + 1

let[@inline] queued_at st p k = st.queue.(slot st p k)

let[@inline] take st p k =
  let g = queued_at st p k in
  if k = 0 then st.qhead.(p) <- slot st p 1 - st.qfirst.(p)
  else
    for j = k to st.qlen.(p) - 2 do
      st.queue.(slot st p j) <- st.queue.(slot st p (j + 1))
    done;
  st.qlen.(p) <- st.qlen.(p) - 1;
  g

let[@inline] next_completion st =
  let best = ref 0 in
  for p = 1 to st.procs - 1 do
    let t = st.run_end.(p) and b = st.run_end.(!best) in
    if t < b || (t = b && st.run_seq.(p) < st.run_seq.(!best)) then best := p
  done;
  if st.run_end.(!best) = infinity then -1 else !best

let[@inline] due_now st =
  let due = ref false in
  for p = 0 to st.procs - 1 do
    if st.run_end.(p) = st.clock.now then due := true
  done;
  !due

(* Rank of processor [p]'s pending completion in start order. *)
let rank st p =
  let r = ref 0 in
  for q = 0 to st.procs - 1 do
    if st.run_actor.(q) >= 0 && st.run_seq.(q) < st.run_seq.(p) then incr r
  done;
  !r

let remaining st p = st.run_end.(p) -. st.clock.now

(* One FNV-1a step over a whole int. *)
let mix h x = (h lxor x) * 0x100000001b3

(* The status array is left out of [hash] and [same_state]: an actor is
   queued exactly when it sits in a ring and running exactly when it is a
   [run_actor]. *)
let hash st =
  let h = ref 0 in
  for c = 0 to Array.length st.tokens - 1 do
    h := mix !h st.tokens.(c)
  done;
  for a = 0 to Array.length st.phase0 - 1 do
    h := mix !h st.phase0.(a)
  done;
  for p = 0 to st.procs - 1 do
    h := mix (mix !h st.order_pos.(p)) st.qlen.(p);
    for k = 0 to st.qlen.(p) - 1 do
      h := mix !h (queued_at st p k)
    done;
    h := mix !h st.run_actor.(p);
    if st.run_actor.(p) >= 0 then
      h := mix (mix !h (int_of_float (remaining st p))) (rank st p)
  done;
  !h

let copy st =
  {
    st with
    clock = { now = st.clock.now };
    tokens = Array.copy st.tokens;
    status = Array.copy st.status;
    phase0 = Array.copy st.phase0;
    queue = Array.copy st.queue;
    qhead = Array.copy st.qhead;
    qlen = Array.copy st.qlen;
    run_actor = Array.copy st.run_actor;
    run_end = Array.copy st.run_end;
    run_seq = Array.copy st.run_seq;
    order_pos = Array.copy st.order_pos;
    iterations = Array.copy st.iterations;
    kept_count = Array.copy st.kept_count;
    kept_first = Array.copy st.kept_first;
    last_completion = Array.copy st.last_completion;
    max_gap = Array.copy st.max_gap;
    min_gap = Array.copy st.min_gap;
    busy = Array.copy st.busy;
    proc_busy = Array.copy st.proc_busy;
  }

let same_proc a b p =
  a.qlen.(p) = b.qlen.(p)
  && a.order_pos.(p) = b.order_pos.(p)
  && a.run_actor.(p) = b.run_actor.(p)
  && (a.run_actor.(p) < 0 || (remaining a p = remaining b p && rank a p = rank b p))
  &&
  let same = ref true in
  for k = 0 to a.qlen.(p) - 1 do
    if queued_at a p k <> queued_at b p k then same := false
  done;
  !same

let same_state a b =
  a.tokens = b.tokens
  && a.phase0 = b.phase0
  &&
  let same = ref true in
  for p = 0 to a.procs - 1 do
    if not (same_proc a b p) then same := false
  done;
  !same

let advance st ~from ~periods =
  let k = float_of_int periods in
  let shift = k *. (st.clock.now -. from.clock.now) in
  st.clock.now <- st.clock.now +. shift;
  for p = 0 to st.procs - 1 do
    if st.run_actor.(p) >= 0 then st.run_end.(p) <- st.run_end.(p) +. shift
  done;
  for a = 0 to Array.length st.apps - 1 do
    let per_period = st.iterations.(a) - from.iterations.(a) in
    st.iterations.(a) <- st.iterations.(a) + (periods * per_period);
    st.kept_count.(a) <- st.kept_count.(a) + (periods * (st.kept_count.(a) - from.kept_count.(a)));
    if per_period > 0 then st.last_completion.(a) <- st.last_completion.(a) +. shift
  done;
  let scale now was =
    for i = 0 to Array.length now - 1 do
      now.(i) <- now.(i) +. (k *. (now.(i) -. was.(i)))
    done
  in
  scale st.busy from.busy;
  scale st.proc_busy from.proc_busy;
  let skipped = periods * (st.firings - from.firings) in
  st.firings <- st.firings + skipped;
  st.extrapolated <- st.extrapolated + skipped

let results st =
  Array.mapi
    (fun a (app : app) ->
      let kept = st.kept_count.(a) in
      {
        app_name = app.graph.name;
        iterations = st.iterations.(a);
        avg_period =
          (if kept >= 2 then
             (st.last_completion.(a) -. st.kept_first.(a)) /. float_of_int (kept - 1)
           else nan);
        max_period = st.max_gap.(a);
        min_period = st.min_gap.(a);
        busy_time = Array.sub st.busy (a * st.procs) st.procs;
      })
    st.apps
