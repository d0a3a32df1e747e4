(* A power-of-two ring array indexed by sequence number. Flow control
   bounds how far [highest] can run ahead of the stability horizon, so
   the live window [gc_horizon+1 .. highest] fits a small ring;
   store/has/advance become single array probes with no hashing and no
   per-entry boxing. A slot holds [sentinel] when empty; occupancy is
   checked by comparing the stored packet's own [seq] to the probe. *)

let sentinel : Wire.packet =
  { ring_id = -1; seq = min_int; sender = -1; elements = [] }

type t = {
  mutable ring : Wire.packet array;
  mutable mask : int; (* Array.length ring - 1; length is a power of two *)
  mutable aru : int;
  mutable highest : int;
  mutable delivered : int;  (* cursor: all <= delivered handed to app *)
  mutable gc_horizon : int;
  mutable stored : int;
}

let initial_capacity = 1024

let create () =
  {
    ring = Array.make initial_capacity sentinel;
    mask = initial_capacity - 1;
    aru = 0;
    highest = 0;
    delivered = 0;
    gc_horizon = 0;
    stored = 0;
  }

let slot_holds t seq = (Array.unsafe_get t.ring (seq land t.mask)).Wire.seq = seq

(* Every live seq lies in (gc_horizon, gc_horizon + capacity]; grow
   (rarely — only if stability stalls while flow control admits more)
   before storing a seq that would wrap onto a live slot. *)
let ensure_capacity t seq =
  let cap = t.mask + 1 in
  if seq - t.gc_horizon > cap then begin
    let ncap =
      let c = ref cap in
      while seq - t.gc_horizon > !c do
        c := !c * 2
      done;
      !c
    in
    let nring = Array.make ncap sentinel in
    let nmask = ncap - 1 in
    Array.iter
      (fun p -> if p != sentinel then nring.(p.Wire.seq land nmask) <- p)
      t.ring;
    t.ring <- nring;
    t.mask <- nmask
  end

let advance_aru t =
  while slot_holds t (t.aru + 1) do
    t.aru <- t.aru + 1
  done

let store t (p : Wire.packet) =
  if p.seq <= t.gc_horizon || slot_holds t p.seq then `Duplicate
  else begin
    ensure_capacity t p.seq;
    t.ring.(p.seq land t.mask) <- p;
    t.stored <- t.stored + 1;
    if p.seq > t.highest then t.highest <- p.seq;
    if p.seq = t.aru + 1 then advance_aru t;
    `New
  end

let has t seq = seq <= t.gc_horizon || slot_holds t seq

let find t seq = if slot_holds t seq then Some t.ring.(seq land t.mask) else None

let my_aru t = t.aru

let highest_seen t = t.highest

let missing_up_to t seq =
  (* Everything above [highest] is missing by definition: probe slots
     only up to [highest], then emit the tail range directly. *)
  let probe_up_to = if seq < t.highest then seq else t.highest in
  let rec gaps i acc =
    if i > probe_up_to then tail i acc
    else if slot_holds t i then gaps (i + 1) acc
    else gaps (i + 1) (i :: acc)
  and tail i acc =
    if i > seq then List.rev acc else tail (i + 1) (i :: acc)
  in
  gaps (t.aru + 1) []

let has_deliverable t = t.delivered < t.aru

let pop_deliverable t =
  if t.delivered >= t.aru then invalid_arg "Recv_buffer.pop_deliverable";
  t.delivered <- t.delivered + 1;
  t.ring.(t.delivered land t.mask)

let gc_below t bound =
  let bound = min bound t.delivered in
  if bound > t.gc_horizon then begin
    for seq = t.gc_horizon + 1 to bound do
      if slot_holds t seq then begin
        t.ring.(seq land t.mask) <- sentinel;
        t.stored <- t.stored - 1
      end
    done;
    t.gc_horizon <- bound
  end

let stored_count t = t.stored

let reset t =
  Array.fill t.ring 0 (t.mask + 1) sentinel;
  t.aru <- 0;
  t.highest <- 0;
  t.delivered <- 0;
  t.gc_horizon <- 0;
  t.stored <- 0
