type entry = {
  workload : Exp.Workload.t;
  caches : Contention.Analysis.cache array;
}

type t = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); table = Hashtbl.create 16 }

let digest_of w = Digest.to_hex (Digest.string (Exp.Workload.to_string w))

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let add t w =
  let digest = digest_of w in
  if not (locked t (fun () -> Hashtbl.mem t.table digest)) then begin
    (* Two uploads racing on a fresh digest build identical caches, and
       the first to file its entry wins. *)
    let caches = Array.map Contention.Analysis.prepare w.apps in
    locked t (fun () ->
        if not (Hashtbl.mem t.table digest) then
          Hashtbl.add t.table digest { workload = w; caches })
  end;
  digest

let find t digest = locked t (fun () -> Hashtbl.find_opt t.table digest)
let count t = locked t (fun () -> Hashtbl.length t.table)
