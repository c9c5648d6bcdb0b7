type t = {
  name : string;
  args : (string * string) list;
  ts_ns : int64;
  dur_ns : int64;
  domain : int;
  trace_id : int64;
  span_id : int64;
  parent_id : int64;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* ------------------------------------------------------------------ *)
(* Trace context                                                       *)

type ctx = { trace_id : int64; parent_span : int64; sampled : bool }

(* Span/trace ids: a SplitMix64 walk over an atomic counter, seeded from
   the pid and the clock so two processes started in the same nanosecond
   still diverge.  Zero is reserved for "no id" and never produced. *)
let id_counter =
  let seed =
    Int64.logxor
      (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (Unix.getpid () + 1)))
      (Int64.logxor
         (Clock.now_ns ())
         (Int64.bits_of_float (Unix.gettimeofday ())))
  in
  Atomic.make seed

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
            0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
            0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rec next_id () =
  let rec bump () =
    let old = Atomic.get id_counter in
    let next = Int64.add old 0x9e3779b97f4a7c15L in
    if Atomic.compare_and_set id_counter old next then next else bump ()
  in
  let id = mix64 (bump ()) in
  if Int64.equal id 0L then next_id () else id

let new_trace ?(sampled = true) () =
  { trace_id = next_id (); parent_span = 0L; sampled }

let id_to_hex id = Printf.sprintf "%016Lx" id

let id_of_hex s =
  if
    String.length s = 16
    && String.for_all
         (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false)
         s
  then
    (* Int64.of_string on "0x…" accepts the full unsigned range, wrapping
       the high bit into the sign — exactly the round-trip of %016Lx. *)
    Some (Int64.of_string ("0x" ^ s))
  else None

(* The ambient context is keyed by systhread, not by domain: the load
   generator and the hot-entry forwarder run many threads inside one
   domain, and Domain.DLS would bleed one request's context into another.
   Thread ids are process-unique and never reused, so a plain table under
   a mutex is correct; contexts are only written on traced/propagated
   request boundaries, so the lock is uncontended in practice. *)
let ctx_mutex = Mutex.create ()
let ctx_table : (int, ctx) Hashtbl.t = Hashtbl.create 32

let current_context () =
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock ctx_mutex;
  let c = Hashtbl.find_opt ctx_table tid in
  Mutex.unlock ctx_mutex;
  c

let set_context tid = function
  | None -> Hashtbl.remove ctx_table tid
  | Some c -> Hashtbl.replace ctx_table tid c

let with_context c f =
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock ctx_mutex;
  let saved = Hashtbl.find_opt ctx_table tid in
  Hashtbl.replace ctx_table tid c;
  Mutex.unlock ctx_mutex;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock ctx_mutex;
      set_context tid saved;
      Mutex.unlock ctx_mutex)
    f

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

(* Every domain owns one buffer (a cons-list under an Atomic).  The global
   registry of buffers is only touched once per domain, on its first
   record; buffers outlive their domain so a sweep's worker spans survive
   the pool join. *)
let registry_mutex = Mutex.create ()
let registry : t list Atomic.t list ref = ref []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let buf = Atomic.make [] in
      Mutex.lock registry_mutex;
      registry := buf :: !registry;
      Mutex.unlock registry_mutex;
      buf)

let push span =
  let buf = Domain.DLS.get buffer_key in
  let rec go () =
    let old = Atomic.get buf in
    (* Single writer per buffer: the CAS only retries against a concurrent
       [drain], so this is wait-free in practice. *)
    if not (Atomic.compare_and_set buf old (span :: old)) then go ()
  in
  go ()

let with_ ?args ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let ctx = current_context () in
    let trace_id, span_id, parent_id =
      match ctx with
      | None -> (0L, 0L, 0L)
      | Some c -> (c.trace_id, next_id (), c.parent_span)
    in
    let t0 = Clock.now_ns () in
    let finish () =
      let t1 = Clock.now_ns () in
      push
        {
          name;
          args = (match args with None -> [] | Some g -> g ());
          ts_ns = t0;
          dur_ns = Int64.sub t1 t0;
          domain = (Domain.self () :> int);
          trace_id;
          span_id;
          parent_id;
        }
    in
    let body () =
      match ctx with
      | None -> f ()
      | Some c ->
          (* Children started inside [f] hang off this span. *)
          with_context { c with parent_span = span_id } f
    in
    match body () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let buffers () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  bufs

let order a b =
  match Int64.compare a.ts_ns b.ts_ns with
  | 0 -> (
      match Int.compare a.domain b.domain with
      | 0 -> String.compare a.name b.name
      | c -> c)
  | c -> c

let collect () =
  List.sort order (List.concat_map Atomic.get (buffers ()))

let drain () =
  List.sort order (List.concat_map (fun b -> Atomic.exchange b []) (buffers ()))

let reset () =
  set_enabled false;
  ignore (drain ())
