(* Classic doubly-linked list + hash table.  The list runs through a
   sentinel node: sentinel.next is the most recently used entry,
   sentinel.prev the eviction candidate.  All operations take the mutex, so
   a cache can be shared by every worker domain. *)

type ('k, 'v) node = {
  mutable key : 'k option;  (* None only on the sentinel *)
  mutable value : 'v option;
  mutable prev : ('k, 'v) node;
  mutable next : ('k, 'v) node;
}

type ('k, 'v) t = {
  mutex : Mutex.t;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  sentinel : ('k, 'v) node;
  cap : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Serve.Lru.create: capacity < 1";
  let rec sentinel =
    { key = None; value = None; prev = sentinel; next = sentinel }
  in
  {
    mutex = Mutex.create ();
    table = Hashtbl.create (2 * capacity);
    sentinel;
    cap = capacity;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.next <- t.sentinel.next;
  node.prev <- t.sentinel;
  t.sentinel.next.prev <- node;
  t.sentinel.next <- node

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | None -> None
      | Some node ->
          unlink node;
          push_front t node;
          node.value)

let put t k v =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some node ->
          node.value <- Some v;
          unlink node;
          push_front t node
      | None ->
          if Hashtbl.length t.table >= t.cap then begin
            let victim = t.sentinel.prev in
            (* cap >= 1 and the table is non-empty, so the tail is a real
               node, not the sentinel. *)
            (match victim.key with
            | Some vk -> Hashtbl.remove t.table vk
            | None -> assert false);
            unlink victim
          end;
          let node = { key = Some k; value = Some v; prev = t.sentinel; next = t.sentinel } in
          push_front t node;
          Hashtbl.add t.table k node)

let length t = locked t (fun () -> Hashtbl.length t.table)
let capacity t = t.cap
