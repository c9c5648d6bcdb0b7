type t = int

let max_apps = 30

let of_list ids =
  List.fold_left
    (fun acc id ->
      if id < 0 || id >= max_apps then
        invalid_arg (Printf.sprintf "Contention.Usecase.of_list: index %d" id);
      acc lor (1 lsl id))
    0 ids

let to_list t =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (if t land (1 lsl i) <> 0 then i :: acc else acc)
  in
  go (max_apps - 1) []

let cardinal t =
  let rec go t acc = if t = 0 then acc else go (t lsr 1) (acc + (t land 1)) in
  go t 0

let mem i t = t land (1 lsl i) <> 0
let add i t = t lor (1 lsl i)

let all ~napps =
  if napps < 0 || napps >= max_apps then
    invalid_arg "Contention.Usecase.all: unsupported application count";
  List.init ((1 lsl napps) - 1) (fun i -> i + 1)

let full ~napps = (1 lsl napps) - 1

let pp ~napps ppf t =
  let names =
    List.filter_map
      (fun i -> if mem i t then Some (String.make 1 (Char.chr (Char.code 'A' + i))) else None)
      (List.init napps Fun.id)
  in
  Format.fprintf ppf "{%s}" (String.concat "," names)
