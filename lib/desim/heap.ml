type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }
let is_empty h = h.size = 0
let size h = h.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let dummy = h.data.(0) in
    let bigger = Array.make (Int.max 16 (2 * cap)) dummy in
    Array.blit h.data 0 bigger 0 h.size;
    h.data <- bigger
  end

let push h ~time payload =
  let entry = { time; seq = h.next_seq; payload } in
  h.next_seq <- h.next_seq + 1;
  if Array.length h.data = 0 then h.data <- Array.make 16 entry else grow h;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  (* Sift up. *)
  let i = ref (h.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before h.data.(!i) h.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = h.data.(parent) in
    h.data.(parent) <- h.data.(!i);
    h.data.(!i) <- tmp;
    i := parent
  done

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && before h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.size && before h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.time, top.payload)
  end

let peek_time h = if h.size = 0 then None else Some h.data.(0).time
