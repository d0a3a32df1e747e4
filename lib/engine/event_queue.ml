type 'a entry = {
  time : Vtime.t;
  tie : int;
  value : 'a;
  mutable dead : bool;
}

(* Unboxed: a handle is the entry pointer itself, so [push] allocates
   the entry and nothing else. *)
type handle = H : 'a entry -> handle [@@unboxed]

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_tie : int;
  mutable live : int;
  (* [heap.(0).time] mirrored into a flat field ([Vtime.never] when
     empty), so the exchange's per-window horizon scans are one load
     with no pointer chase into the root entry. May briefly quote a
     cancelled root's (earlier) time until the next peek prunes it —
     harmless to the scans, which treat it as a conservative bound. *)
  mutable root_time : Vtime.t;
}

let create () =
  { heap = [||]; size = 0; next_tie = 0; live = 0; root_time = Vtime.never }

let is_empty t = t.live = 0
let length t = t.live
let physical_size t = t.size

let precedes a b =
  a.time < b.time || (a.time = b.time && a.tie < b.tie)

(* Hole-based sifts: carry the moving entry in a register and write
   each displaced entry once, instead of three barrier'd array writes
   per level that swapping costs. *)
let sift_up t i =
  let e = t.heap.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = t.heap.(parent) in
    if precedes e p then begin
      t.heap.(!i) <- p;
      i := parent
    end
    else continue := false
  done;
  t.heap.(!i) <- e

let sift_down t i =
  let e = t.heap.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    let se = ref e in
    if l < t.size && precedes t.heap.(l) !se then begin
      smallest := l;
      se := t.heap.(l)
    end;
    if r < t.size && precedes t.heap.(r) !se then begin
      smallest := r;
      se := t.heap.(r)
    end;
    if !smallest <> !i then begin
      t.heap.(!i) <- !se;
      i := !smallest
    end
    else continue := false
  done;
  t.heap.(!i) <- e

let[@inline] refresh_root t =
  t.root_time <- (if t.size = 0 then Vtime.never else t.heap.(0).time)

(* Drop dead entries and re-establish the heap property bottom-up
   (Floyd). Handles stay valid: a handle points at its entry record, and
   cancelled entries are simply no longer reachable from the array. *)
let compact t =
  let dst = ref 0 in
  for i = 0 to t.size - 1 do
    let e = t.heap.(i) in
    if not e.dead then begin
      t.heap.(!dst) <- e;
      incr dst
    end
  done;
  t.size <- !dst;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done;
  refresh_root t

(* Cancellation is lazy, so a cancel/re-arm workload would otherwise
   grow the heap without bound: sift costs scale with log of the
   *physical* size, dead entries included. Compact once the dead
   outnumber the live. *)
let maybe_compact t =
  if t.size - t.live > t.live && t.size - t.live > 64 then compact t

let grow t entry =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nheap = Array.make ncap entry in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end

let push_entry t entry =
  grow t entry;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  sift_up t (t.size - 1);
  refresh_root t;
  H entry

let push_tie t ~time ~tie value =
  if tie >= t.next_tie then t.next_tie <- tie + 1;
  push_entry t { time; tie; value; dead = false }

let push t ~time value =
  let entry = { time; tie = t.next_tie; value; dead = false } in
  t.next_tie <- t.next_tie + 1;
  push_entry t entry

let cancel t (H entry) =
  if entry.dead then false
  else begin
    entry.dead <- true;
    t.live <- t.live - 1;
    maybe_compact t;
    true
  end

let pop_root t =
  let root = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  refresh_root t;
  root

let rec pop t =
  if t.size = 0 then None
  else
    let root = pop_root t in
    if root.dead then pop t
    else begin
      (* Mark fired so a later cancel of this handle is a no-op. *)
      root.dead <- true;
      t.live <- t.live - 1;
      Some (root.time, root.value)
    end

let rec prune t =
  if t.size > 0 && t.heap.(0).dead then begin
    ignore (pop_root t);
    prune t
  end

let peek_key t =
  prune t;
  if t.size = 0 then None else Some (t.heap.(0).time, t.heap.(0).tie)

let peek_time t = Option.map fst (peek_key t)

(* Allocation-free variant for the exchange's per-window scans: one
   flat load of the mirrored root time (see [root_time]), no option. *)
let[@inline] peek_time_raw t = t.root_time

(* The allocation-free pop path of the simulator's drain loops: after
   [prune] the root is live, so [root_time] is exact and [top_tie] /
   [take] read and remove it without building an option or a tuple. *)
let[@inline] top_tie t = t.heap.(0).tie

let take t =
  let root = pop_root t in
  root.dead <- true;
  t.live <- t.live - 1;
  root.value
