type t = {
  actor : int array;
  src : int array;
  dst : int array;
  delay : int array;
  source : Graph.t;
}

let num_nodes t = Array.length t.actor
let num_edges t = Array.length t.src

(* The edge indices [order], stably counting-sorted by [key.(e)] in
   [0, n): O(n + E) whatever the rates, where a comparison sort of one
   high-rate actor's thousands of edges would not be. *)
let sort_by ~n key order =
  let next = Array.make (n + 1) 0 in
  Array.iter (fun e -> next.(key.(e) + 1) <- next.(key.(e) + 1) + 1) order;
  for v = 1 to n do
    next.(v) <- next.(v) + next.(v - 1)
  done;
  let sorted = Array.make (Array.length order) 0 in
  Array.iter
    (fun e ->
      sorted.(next.(key.(e))) <- e;
      next.(key.(e)) <- next.(key.(e)) + 1)
    order;
  sorted

(* Firing k of [src] (0-based) produces tokens numbered
   d + k*p + 1 .. d + (k+1)*p on the channel (counting initial tokens first);
   token number m is consumed by global firing ceil(m/c) of [dst], i.e.
   firing ((ceil(m/c) - 1) mod q_dst) of iteration (ceil(m/c) - 1) / q_dst. *)
let expand ?repetition (g : Graph.t) =
  let q = match repetition with Some q -> q | None -> Repetition.compute_exn g in
  let nactors = Graph.num_actors g in
  let base = Array.make (nactors + 1) 0 in
  for a = 0 to nactors - 1 do
    base.(a + 1) <- base.(a) + q.(a)
  done;
  let nnodes = base.(nactors) in
  let actor = Array.make nnodes 0 in
  for a = 0 to nactors - 1 do
    Array.fill actor base.(a) q.(a) a
  done;
  (* One raw dependency per produced token, and one per node chaining an
     actor's firings. *)
  let raw =
    Array.fold_left
      (fun n (c : Graph.channel) -> n + (q.(c.src) * c.produce))
      nnodes g.channels
  in
  let rsrc = Array.make raw 0 and rdst = Array.make raw 0 and rdelay = Array.make raw 0 in
  let n = ref 0 in
  let add u v d =
    rsrc.(!n) <- u;
    rdst.(!n) <- v;
    rdelay.(!n) <- d;
    incr n
  in
  (* Channel dependencies. *)
  Array.iter
    (fun (c : Graph.channel) ->
      let p = c.produce and co = c.consume and d = c.tokens in
      for k = 0 to q.(c.src) - 1 do
        (* Dependencies induced by each token produced by firing k. Distinct
           tokens of one firing may feed distinct consumer firings. *)
        for j = 1 to p do
          let m = d + (k * p) + j in
          let consumer = (m + co - 1) / co in
          (* 1-based global firing *)
          let firing = (consumer - 1) mod q.(c.dst)
          and iteration = (consumer - 1) / q.(c.dst) in
          add (base.(c.src) + k) (base.(c.dst) + firing) iteration
        done
      done)
    g.channels;
  (* Initially available tokens also satisfy early consumer firings with no
     producer dependency; those firings simply lack an incoming edge for them,
     which is already the correct semantics. Forbid auto-concurrency by
     chaining the copies of each actor. *)
  for a = 0 to nactors - 1 do
    for k = 0 to q.(a) - 1 do
      let next = (k + 1) mod q.(a) in
      add (base.(a) + k) (base.(a) + next) (if next = 0 then 1 else 0)
    done
  done;
  (* Sorted by (src, dst): by dst, then stably by src.  One edge per pair,
     with the least delay — larger delays are dominated for cycle-ratio
     purposes. *)
  let order = sort_by ~n:nnodes rsrc (sort_by ~n:nnodes rdst (Array.init raw Fun.id)) in
  let src = Array.make raw 0 and dst = Array.make raw 0 and delay = Array.make raw 0 in
  let m = ref 0 in
  Array.iter
    (fun r ->
      let last = !m - 1 in
      if last >= 0 && src.(last) = rsrc.(r) && dst.(last) = rdst.(r) then
        delay.(last) <- Int.min delay.(last) rdelay.(r)
      else begin
        src.(!m) <- rsrc.(r);
        dst.(!m) <- rdst.(r);
        delay.(!m) <- rdelay.(r);
        incr m
      end)
    order;
  let src = Array.sub src 0 !m and dst = Array.sub dst 0 !m in
  let delay = Array.sub delay 0 !m in
  { actor; src; dst; delay; source = g }

let period_of_expansion h ~exec_times =
  if Array.length exec_times <> Graph.num_actors h.source then
    invalid_arg "Sdf.Hsdf.period_of_expansion: one execution time per actor";
  let edges =
    Array.init (num_edges h) (fun e ->
        (h.src.(e), h.dst.(e), exec_times.(h.actor.(h.src.(e))), h.delay.(e)))
  in
  match Mcm.max_cycle_ratio ~nodes:(num_nodes h) edges with
  | Some ratio -> ratio
  | None ->
      invalid_arg
        (Printf.sprintf "Sdf.Hsdf.period: graph %S has no cycle (unbounded rate)"
           h.source.name)

let period g = period_of_expansion (expand g) ~exec_times:(Graph.exec_times g)

let period_rational g =
  let h = expand g in
  let int_time (a : Graph.actor) =
    let t = a.exec_time in
    if Float.is_integer t && t >= 1. && t < 1e15 then int_of_float t
    else
      invalid_arg
        (Printf.sprintf "Sdf.Hsdf.period_rational: non-integer execution time %g" t)
  in
  let edges =
    Array.init (num_edges h) (fun e ->
        (h.src.(e), h.dst.(e), int_time g.actors.(h.actor.(h.src.(e))), h.delay.(e)))
  in
  match Mcm.max_cycle_ratio_rational ~nodes:(num_nodes h) edges with
  | Some ratio -> ratio
  | None ->
      invalid_arg
        (Printf.sprintf "Sdf.Hsdf.period_rational: graph %S has no cycle" h.source.name)
