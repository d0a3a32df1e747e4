type 'a entry = {
  time : Vtime.t;
  tie : int;
  value : 'a;
  mutable dead : bool;
}

(* Unboxed: a handle is the entry pointer itself, so [push] allocates
   the entry and nothing else. *)
type handle = H : 'a entry -> handle [@@unboxed]

(* A bucket is a growable array of entries in no particular order:
   removing one moves the last entry into its slot, so neither popping
   nor sweeping allocates. Slots at or above [n] may still point at
   removed entries until they are overwritten. *)
type 'a bucket = {
  mutable items : 'a entry array;
  mutable n : int;
}

type 'a t = {
  buckets : 'a bucket array;
  mask : int;
  shift : int;
  mutable live : int;
  mutable dead_count : int;
  (* Where the earliest live entry sits ([buckets.(min_b).items.(min_i)]),
     or [min_b = -1] when unknown (empty, or the cached minimum was
     popped/cancelled, or a sweep moved entries). Recomputed lazily by a
     full bucket scan; the wheel holds tens of timers, so the scan is
     cheap and rare relative to push/cancel traffic. *)
  mutable min_b : int;
  mutable min_i : int;
  (* Flat lower bound on the earliest live time ([Vtime.never] when
     empty): exact while the cached location is valid, and never above
     the true minimum while it is not (a popped or cancelled minimum
     leaves its own — earlier — time behind until [settle] recomputes).
     The exchange's per-window scans read this as one load and tolerate
     the conservative staleness. *)
  mutable min_time : Vtime.t;
}

let default_shift = 17 (* 131 us buckets: well under any protocol timeout *)
let default_buckets = 64

let create ?(shift = default_shift) ?(buckets = default_buckets) () =
  if buckets <= 0 || buckets land (buckets - 1) <> 0 then
    invalid_arg "Timer_wheel.create: buckets must be a positive power of two";
  {
    buckets = Array.init buckets (fun _ -> { items = [||]; n = 0 });
    mask = buckets - 1;
    shift;
    live = 0;
    dead_count = 0;
    min_b = -1;
    min_i = 0;
    min_time = Vtime.never;
  }

let length t = t.live
let is_empty t = t.live = 0

let bucket_of t time = (time lsr t.shift) land t.mask

let precedes a b =
  a.time < b.time || (a.time = b.time && a.tie < b.tie)

let[@inline] cached t = t.buckets.(t.min_b).items.(t.min_i)

(* Physically drop dead entries once they outnumber the live ones, so
   cancel churn cannot grow the buckets without bound. Entries move, so
   the cached location is dropped; [min_time] stays a valid bound. *)
let sweep t =
  for b = 0 to t.mask do
    let bk = t.buckets.(b) in
    let j = ref 0 in
    for i = 0 to bk.n - 1 do
      let e = bk.items.(i) in
      if not e.dead then begin
        bk.items.(!j) <- e;
        incr j
      end
    done;
    bk.n <- !j
  done;
  t.dead_count <- 0;
  t.min_b <- -1

let push t ~time ~tie value =
  let entry = { time; tie; value; dead = false } in
  let b = bucket_of t time in
  let bk = t.buckets.(b) in
  if bk.n = Array.length bk.items then begin
    let items = Array.make (max 4 (2 * bk.n)) entry in
    Array.blit bk.items 0 items 0 bk.n;
    bk.items <- items
  end;
  let i = bk.n in
  bk.items.(i) <- entry;
  bk.n <- i + 1;
  t.live <- t.live + 1;
  if (t.min_b >= 0 && precedes entry (cached t)) || (t.min_b < 0 && t.live = 1)
  then begin
    t.min_b <- b;
    t.min_i <- i;
    t.min_time <- time
  end
  else if t.min_b < 0 && Vtime.(time < t.min_time) then t.min_time <- time;
  H entry

let cancel t (H entry) =
  if entry.dead then false
  else begin
    entry.dead <- true;
    t.live <- t.live - 1;
    t.dead_count <- t.dead_count + 1;
    (if t.min_b >= 0 then
       let m = cached t in
       if m.time = entry.time && m.tie = entry.tie then t.min_b <- -1);
    if t.dead_count > t.live && t.dead_count > 32 then sweep t;
    true
  end

(* Make the cached location valid (when any timer is live) and
   [min_time] exact. Allocation-free: the scan's accumulators are local
   refs the compiler keeps in registers. *)
let settle t =
  if t.min_b < 0 then
    if t.live = 0 then t.min_time <- Vtime.never
    else begin
      let bb = ref (-1) and bi = ref 0 in
      let bt = ref Vtime.never and btie = ref max_int in
      for b = 0 to t.mask do
        let bk = t.buckets.(b) in
        for i = 0 to bk.n - 1 do
          let e = bk.items.(i) in
          if (not e.dead) && (e.time < !bt || (e.time = !bt && e.tie < !btie))
          then begin
            bb := b;
            bi := i;
            bt := e.time;
            btie := e.tie
          end
        done
      done;
      t.min_b <- !bb;
      t.min_i <- !bi;
      t.min_time <- !bt
    end

let[@inline] min_tie t = (cached t).tie

let take t =
  let bk = t.buckets.(t.min_b) in
  let e = bk.items.(t.min_i) in
  let last = bk.n - 1 in
  bk.items.(t.min_i) <- bk.items.(last);
  bk.n <- last;
  e.dead <- true;
  t.live <- t.live - 1;
  t.min_b <- -1;
  e.value

let peek_key t =
  settle t;
  if t.live = 0 then None else Some (t.min_time, min_tie t)

let peek_time t = Option.map fst (peek_key t)

(* One flat load: see [min_time]. *)
let[@inline] peek_time_raw t = t.min_time

let pop_min t =
  settle t;
  if t.live = 0 then None
  else
    let time = t.min_time in
    Some (time, take t)
