(* Merge several shards' Prometheus expositions into one, telling series
   apart with an injected [shard] label.

   The parser is deliberately line-oriented and shallow: the expositions
   come from {!Obs.Prometheus.expose}, whose output grammar is small (one
   [# HELP] and [# TYPE] per family, then samples), but unknown lines pass
   through untouched per shard so a future exposition feature degrades to
   ugly-but-present rather than dropped. *)

type family = {
  f_name : string;
  f_help : string option; (* full "# HELP name text" line *)
  f_type : string option; (* full "# TYPE name kind" line *)
  f_samples : (string * string) list; (* (shard, sample line), in order *)
}

(* "name{labels} value" or "name value"; the family a sample belongs to is
   the metric name up to '{' or ' ', minus a histogram/summary suffix so
   _bucket/_sum/_count stay inside their family block. *)
let sample_family line =
  let stop =
    match String.index_opt line '{' with
    | Some i -> i
    | None -> ( match String.index_opt line ' ' with
        | Some i -> i
        | None -> String.length line)
  in
  let name = String.sub line 0 stop in
  let strip suffix =
    let n = String.length name and s = String.length suffix in
    if n > s && String.sub name (n - s) s = suffix then
      Some (String.sub name 0 (n - s))
    else None
  in
  match strip "_bucket" with
  | Some base -> base
  | None -> (
      match strip "_sum" with
      | Some base -> base
      | None -> ( match strip "_count" with Some b -> b | None -> name))

(* Inject [shard="<name>"] as the first label of a sample line.  The label
   value is escaped per the exposition format. *)
let label_sample ~shard line =
  let tag =
    Printf.sprintf "shard=\"%s\"" (Obs.Prometheus.escape_label_value shard)
  in
  match String.index_opt line '{' with
  | Some i ->
      String.sub line 0 (i + 1)
      ^ tag ^ ","
      ^ String.sub line (i + 1) (String.length line - i - 1)
  | None -> (
      match String.index_opt line ' ' with
      | Some i ->
          String.sub line 0 i
          ^ "{" ^ tag ^ "}"
          ^ String.sub line i (String.length line - i)
      | None -> line)

let split_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let header_name line =
  (* "# HELP name …" / "# TYPE name …" *)
  match String.split_on_char ' ' line with
  | _ :: _ :: name :: _ -> name
  | _ -> ""

let merge expositions =
  (* Deterministic: shards in sorted order, families sorted by name,
     samples in per-shard order within a family — independent of the order
     the expositions were handed in. *)
  let expositions =
    List.sort (fun (a, _) (b, _) -> String.compare a b) expositions
  in
  let families : (string, family) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let family name =
    match Hashtbl.find_opt families name with
    | Some f -> f
    | None ->
        let f = { f_name = name; f_help = None; f_type = None; f_samples = [] } in
        Hashtbl.replace families name f;
        order := name :: !order;
        f
  in
  let set name f = Hashtbl.replace families name f in
  List.iter
    (fun (shard, text) ->
      List.iter
        (fun line ->
          if starts_with "# HELP " line then begin
            let name = header_name line in
            let f = family name in
            if f.f_help = None then set name { f with f_help = Some line }
          end
          else if starts_with "# TYPE " line then begin
            let name = header_name line in
            let f = family name in
            if f.f_type = None then set name { f with f_type = Some line }
          end
          else if starts_with "#" line then ()
          else begin
            let name = sample_family line in
            let f = family name in
            set name
              {
                f with
                f_samples = (shard, label_sample ~shard line) :: f.f_samples;
              }
          end)
        (split_lines text))
    expositions;
  let names = List.sort String.compare !order in
  let buf = Buffer.create 4096 in
  List.iter
    (fun name ->
      let f = Hashtbl.find families name in
      Option.iter
        (fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        f.f_help;
      Option.iter
        (fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        f.f_type;
      List.iter
        (fun (_, l) ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        (List.rev f.f_samples))
    names;
  Buffer.contents buf
