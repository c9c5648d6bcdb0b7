(* Minimal JSON string emission — obs sits below every library that owns a
   JSON codec, so it carries its own escaper for the handful of strings a
   trace contains. *)
let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Nanoseconds to a decimal-microsecond literal, exactly: "12.345". *)
let us_of_ns ns =
  Printf.sprintf "%Ld.%03Ld" (Int64.div ns 1000L) (Int64.rem ns 1000L)

let add_args buf args =
  Buffer.add_string buf "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_escaped buf k;
      Buffer.add_char buf ':';
      add_escaped buf v)
    args;
  Buffer.add_char buf '}'

(* Trace/span/parent ids ride in the args object (hex, as emitted on the
   wire) — Perfetto shows them on the slice, and the merge loader reads
   them back.  Spans recorded without an ambient context stay exactly as
   before, so id-free traces are byte-identical to the previous format. *)
let id_args (s : Span.t) =
  if Int64.equal s.span_id 0L then []
  else
    [ ("trace", Span.id_to_hex s.trace_id); ("span", Span.id_to_hex s.span_id) ]
    @
    if Int64.equal s.parent_id 0L then []
    else [ ("parent", Span.id_to_hex s.parent_id) ]

type anchor = { wall_ns : int64; mono_ns : int64 }

let now_anchor () =
  (* Read the two clocks back to back; the instant between the reads is
     "the same moment" on both, good to well under a microsecond — plenty
     for aligning traces of processes that exchange network requests. *)
  let wall = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  let mono = Clock.now_ns () in
  { wall_ns = wall; mono_ns = mono }

type process = {
  p_name : string;
  p_anchor : anchor option;
  p_spans : Span.t list;
}

(* A span's start on the shared wall timeline: shift its monotonic
   timestamp by the process's wall/monotonic offset.  Without an anchor
   (a pre-anchor trace file) the raw timestamp is the best available. *)
let wall_of p (s : Span.t) =
  match p.p_anchor with
  | Some a -> Int64.add a.wall_ns (Int64.sub s.ts_ns a.mono_ns)
  | None -> s.ts_ns

(* The one event writer.  Process [i] of the list becomes pid [i + 1] with
   its process and thread metadata, every span an [X] event timed from the
   earliest start on the shared timeline, and each parent/child link across
   two processes a flow arrow.  [sync], given only for one process's own
   file, adds that process's [clock_sync] event. *)
let chrome_json ?sync processes =
  let tagged =
    List.concat
      (List.mapi
         (fun i p ->
           List.map (fun s -> (i + 1, wall_of p s, s)) p.p_spans)
         processes)
  in
  let epoch =
    List.fold_left
      (fun acc (_, w, _) -> if Int64.compare w acc < 0 then w else acc)
      (match tagged with [] -> 0L | (_, w, _) :: _ -> w)
      tagged
  in
  let events =
    List.sort
      (fun (p1, w1, (s1 : Span.t)) (p2, w2, (s2 : Span.t)) ->
        match Int64.compare w1 w2 with
        | 0 -> (
            match Int.compare p1 p2 with
            | 0 -> (
                match Int.compare s1.domain s2.domain with
                | 0 -> String.compare s1.name s2.name
                | c -> c)
            | c -> c)
        | c -> c)
      tagged
  in
  (* span_id -> (pid, wall start, domain): the flow-event endpoints. *)
  let index = Hashtbl.create 256 in
  List.iter
    (fun (pid, w, (s : Span.t)) ->
      if not (Int64.equal s.span_id 0L) then
        Hashtbl.replace index s.span_id (pid, w, s.domain))
    events;
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\","
           (i + 1));
      add_args buf [ ("name", p.p_name) ];
      Buffer.add_char buf '}';
      (match sync with
      | Some a when i = 0 ->
          (* One wall/monotonic clock pair plus the rebasing epoch:
             everything a merger needs to place this file's relative
             timestamps on a cross-process wall timeline.  Values are
             strings — int64 nanoseconds do not survive a float JSON
             number. *)
          Buffer.add_string buf
            ",{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"clock_sync\",";
          add_args buf
            [
              ("wall_ns", Int64.to_string a.wall_ns);
              ("mono_ns", Int64.to_string a.mono_ns);
              ("epoch_ns", Int64.to_string epoch);
            ];
          Buffer.add_char buf '}'
      | _ -> ());
      let domains =
        List.sort_uniq Int.compare
          (List.map (fun (s : Span.t) -> s.domain) p.p_spans)
      in
      List.iter
        (fun d ->
          Buffer.add_string buf
            (Printf.sprintf
               ",{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\","
               (i + 1) d);
          add_args buf [ ("name", Printf.sprintf "domain %d" d) ];
          Buffer.add_char buf '}')
        domains)
    processes;
  List.iter
    (fun (pid, w, (s : Span.t)) ->
      Buffer.add_string buf
        (Printf.sprintf
           ",{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":"
           pid s.domain
           (us_of_ns (Int64.sub w epoch))
           (us_of_ns s.dur_ns));
      add_escaped buf s.name;
      Buffer.add_char buf ',';
      add_args buf (s.args @ id_args s);
      Buffer.add_char buf '}')
    events;
  (* Flow arrows for parent/child links that cross a process boundary —
     within a process, slice nesting already shows the relationship.  The
     flow id is the child's span id (unique per arrow). *)
  let flows =
    List.filter_map
      (fun (pid, w, (s : Span.t)) ->
        if Int64.equal s.parent_id 0L || Int64.equal s.span_id 0L then None
        else
          match Hashtbl.find_opt index s.parent_id with
          | Some (ppid, pw, pdom) when ppid <> pid ->
              Some (s.span_id, (ppid, pw, pdom), (pid, w, s.domain))
          | _ -> None)
      events
  in
  let flows =
    List.sort (fun (a, _, _) (b, _, _) -> Int64.compare a b) flows
  in
  List.iter
    (fun (id, (ppid, pw, pdom), (cpid, cw, cdom)) ->
      let hex = Span.id_to_hex id in
      Buffer.add_string buf
        (Printf.sprintf
           ",{\"ph\":\"s\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"name\":\"request\",\"cat\":\"trace\",\"id\":\"0x%s\"}"
           ppid pdom
           (us_of_ns (Int64.sub pw epoch))
           hex);
      Buffer.add_string buf
        (Printf.sprintf
           ",{\"ph\":\"f\",\"bp\":\"e\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"name\":\"request\",\"cat\":\"trace\",\"id\":\"0x%s\"}"
           cpid cdom
           (us_of_ns (Int64.sub cw epoch))
           hex))
    flows;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let to_chrome_json ?(process_name = "contention") ?anchor spans =
  chrome_json ?sync:anchor
    [ { p_name = process_name; p_anchor = None; p_spans = spans } ]

let write_file ?process_name ~path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (to_chrome_json ?process_name ~anchor:(now_anchor ()) spans))

let merged_chrome_json processes =
  (* Deterministic: process order (and so pid assignment) depends only on
     the contents, never on the order the files were given in. *)
  chrome_json
    (List.sort
       (fun a b ->
         match String.compare a.p_name b.p_name with
         | 0 ->
             Int64.compare
               (match a.p_anchor with Some x -> x.wall_ns | None -> 0L)
               (match b.p_anchor with Some x -> x.wall_ns | None -> 0L)
         | c -> c)
       processes)
