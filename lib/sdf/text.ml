let to_string (g : Graph.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "graph %S\n" g.name);
  Array.iter
    (fun (a : Graph.actor) ->
      Buffer.add_string buf (Printf.sprintf "actor %s %.17g\n" a.name a.exec_time))
    g.actors;
  Array.iter
    (fun (c : Graph.channel) ->
      Buffer.add_string buf
        (Printf.sprintf "channel %s -> %s produce %d consume %d tokens %d\n"
           g.actors.(c.src).name g.actors.(c.dst).name c.produce c.consume c.tokens))
    g.channels;
  Buffer.contents buf

type parse_state = {
  mutable graph_name : string option;
  mutable actors : (string * float) list;  (* reverse order *)
  mutable channels : (string * string * int * int * int) list;  (* reverse *)
}

let tokenize line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let parse_error lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg)

let of_string text =
  let state = { graph_name = None; actors = []; channels = [] } in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> finish ()
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || String.length line > 0 && line.[0] = '#' then
          go (lineno + 1) rest
        else
          match tokenize line with
          | [ "graph"; quoted ] ->
              if state.graph_name <> None then parse_error lineno "duplicate graph line"
              else if
                String.length quoted >= 2
                && quoted.[0] = '"'
                && quoted.[String.length quoted - 1] = '"'
              then begin
                state.graph_name <- Some (String.sub quoted 1 (String.length quoted - 2));
                go (lineno + 1) rest
              end
              else parse_error lineno "graph name must be quoted"
          | [ "actor"; name; time ] -> (
              match float_of_string_opt time with
              | None -> parse_error lineno (Printf.sprintf "bad execution time %S" time)
              | Some t ->
                  if List.mem_assoc name state.actors then
                    parse_error lineno (Printf.sprintf "duplicate actor %S" name)
                  else begin
                    state.actors <- (name, t) :: state.actors;
                    go (lineno + 1) rest
                  end)
          | [ "channel"; src; "->"; dst; "produce"; p; "consume"; c; "tokens"; t ] -> (
              match (int_of_string_opt p, int_of_string_opt c, int_of_string_opt t) with
              | Some p, Some c, Some t ->
                  state.channels <- (src, dst, p, c, t) :: state.channels;
                  go (lineno + 1) rest
              | _ -> parse_error lineno "bad channel rates or tokens")
          | _ -> parse_error lineno (Printf.sprintf "unrecognised line %S" line))
  and finish () =
    match state.graph_name with
    | None -> Error "missing graph line"
    | Some name -> (
        let actors = Array.of_list (List.rev state.actors) in
        let index_of n =
          let found = ref (-1) in
          Array.iteri (fun i (an, _) -> if an = n then found := i) actors;
          !found
        in
        let resolve (src, dst, p, c, t) =
          let si = index_of src and di = index_of dst in
          if si < 0 then Error (Printf.sprintf "unknown channel source %S" src)
          else if di < 0 then Error (Printf.sprintf "unknown channel target %S" dst)
          else Ok (si, di, p, c, t)
        in
        let rec resolve_all acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | ch :: rest -> (
              match resolve ch with
              | Error _ as e -> e
              | Ok r -> resolve_all (r :: acc) rest)
        in
        match resolve_all [] (List.rev state.channels) with
        | Error _ as e -> e
        | Ok channels -> (
            match Graph.create ~name ~actors ~channels with
            | g -> Ok g
            | exception Invalid_argument msg -> Error msg))
  in
  go 1 lines

let write_file path g =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string g))

let to_string_many graphs = String.concat "\n" (List.map to_string graphs)

let of_string_many text =
  let lines = String.split_on_char '\n' text in
  (* Partition into sections, each beginning with a "graph" line. *)
  let sections, current =
    List.fold_left
      (fun (sections, current) line ->
        let starts_graph =
          match tokenize (String.trim line) with "graph" :: _ -> true | _ -> false
        in
        if starts_graph then
          match current with
          | None -> (sections, Some [ line ])
          | Some acc -> (List.rev acc :: sections, Some [ line ])
        else
          match current with
          | None -> (sections, None)  (* leading comments/blanks *)
          | Some acc -> (sections, Some (line :: acc)))
      ([], None) lines
  in
  let sections =
    List.rev (match current with None -> sections | Some acc -> List.rev acc :: sections)
  in
  if sections = [] then Error "no graph sections found"
  else
    let rec parse_all acc = function
      | [] -> Ok (List.rev acc)
      | section :: rest -> (
          match of_string (String.concat "\n" section) with
          | Ok g -> parse_all (g :: acc) rest
          | Error _ as e -> e)
    in
    parse_all [] sections
