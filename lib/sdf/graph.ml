type actor = { id : int; name : string; exec_time : float }

type channel = {
  src : int;
  dst : int;
  produce : int;
  consume : int;
  tokens : int;
}

type t = { name : string; actors : actor array; channels : channel array }

let num_actors g = Array.length g.actors
let num_channels g = Array.length g.channels

let check_actor_id g id =
  if id < 0 || id >= num_actors g then
    invalid_arg (Printf.sprintf "Sdf.Graph: actor id %d out of range in %S" id g.name)

let create ~name ~actors ~channels =
  let mk_actor id (aname, exec_time) =
    if not (exec_time > 0. && exec_time < infinity) then
      invalid_arg
        (Printf.sprintf
           "Sdf.Graph.create: actor %S has execution time %g, not finite and positive"
           aname exec_time);
    { id; name = aname; exec_time }
  in
  let g = { name; actors = Array.mapi mk_actor actors; channels = [||] } in
  let mk_channel (src, dst, produce, consume, tokens) =
    check_actor_id g src;
    check_actor_id g dst;
    if produce < 1 || consume < 1 then
      invalid_arg
        (Printf.sprintf "Sdf.Graph.create: channel %d->%d has non-positive rate" src dst);
    if tokens < 0 then
      invalid_arg
        (Printf.sprintf "Sdf.Graph.create: channel %d->%d has negative tokens" src dst);
    { src; dst; produce; consume; tokens }
  in
  { g with channels = Array.map mk_channel channels }

let actor g id =
  check_actor_id g id;
  g.actors.(id)

let exec_times g = Array.map (fun a -> a.exec_time) g.actors

let with_exec_times g times =
  if Array.length times <> num_actors g then
    invalid_arg "Sdf.Graph.with_exec_times: length mismatch";
  let set a =
    let t = times.(a.id) in
    if not (t > 0. && t < infinity) then
      invalid_arg
        (Printf.sprintf "Sdf.Graph.with_exec_times: time %g for %S, not finite and positive"
           t a.name);
    { a with exec_time = t }
  in
  { g with actors = Array.map set g.actors }

(* Actor 0 reaches every actor along the channels, and along them reversed. *)
let is_strongly_connected g =
  let n = num_actors g in
  let reaches_all ~reverse =
    let seen = Array.make n false in
    let rec visit id =
      if not seen.(id) then begin
        seen.(id) <- true;
        Array.iter
          (fun c ->
            if reverse then (if c.dst = id then visit c.src)
            else if c.src = id then visit c.dst)
          g.channels
      end
    in
    visit 0;
    Array.for_all Fun.id seen
  in
  n = 0 || (reaches_all ~reverse:false && reaches_all ~reverse:true)

let pp ppf g =
  Format.fprintf ppf "@[<v>graph %S@," g.name;
  Array.iter
    (fun a -> Format.fprintf ppf "  actor %d %S tau=%g@," a.id a.name a.exec_time)
    g.actors;
  Array.iter
    (fun c ->
      Format.fprintf ppf "  channel %d -> %d (prod=%d cons=%d tokens=%d)@," c.src c.dst
        c.produce c.consume c.tokens)
    g.channels;
  Format.fprintf ppf "@]"

let equal_structure a b =
  a.actors = b.actors && a.channels = b.channels
