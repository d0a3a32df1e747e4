(* Output checks, computed apart from the program. Each checker is pure
   over plain data so the tests can feed it deliberately wrong inputs.

   The recorders keep their data in Bigarrays, outside the OCaml heap,
   so the program's peak heap is measured without the benchmark's own
   buffers in it. *)

type outcome = { name : string; ok : bool; detail : string }

(* An off-heap int array. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints n : ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let grow_ints (a : ints) ~used n : ints =
  let b = ints n in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 used) (Bigarray.Array1.sub b 0 used);
  b

type bits = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let bits n : bits =
  let b = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout ((n / 8) + 1) in
  Bigarray.Array1.fill b 0;
  b

let pass name detail = { name; ok = true; detail }
let fail name detail = { name; ok = false; detail }
let check name ok detail = { name; ok; detail }

(* A delivered message as (origin, app_seq), packed into one int so the
   recorders store plain int arrays. *)
let pack ~origin ~app_seq = (origin lsl 40) lor app_seq
let origin_of k = k lsr 40
let app_seq_of k = k land ((1 lsl 40) - 1)

(* --- agreed order --------------------------------------------------- *)

(* Online agreed-order recorder. Every node's delivery sequence must be
   a prefix of one common sequence (so any shorter sequence is a prefix
   of any longer one), and that sequence may not hold a message twice.
   The common sequence is the longest seen so far: a node that runs
   ahead appends to it, every other node is compared against it.
   Storage is one int array plus a bitmap per origin, reused across
   runs. *)
type order = {
  mutable common : ints;
  mutable len : int;
  mutable pos : int array;  (* per node: messages delivered *)
  mutable seen : bits array;  (* per origin: bitmap over app_seq *)
  mutable first_error : string option;
}

let order_create ~nodes ~capacity =
  {
    common = ints capacity;
    len = 0;
    pos = Array.make nodes 0;
    seen = Array.init nodes (fun _ -> bits capacity);
    first_error = None;
  }

let order_reset o ~nodes =
  o.len <- 0;
  if Array.length o.pos <> nodes then begin
    o.pos <- Array.make nodes 0;
    let capacity = 8 * (Bigarray.Array1.dim o.seen.(0) - 1) in
    o.seen <- Array.init nodes (fun _ -> bits capacity)
  end
  else begin
    Array.fill o.pos 0 nodes 0;
    Array.iter (fun b -> Bigarray.Array1.fill b 0) o.seen
  end;
  o.first_error <- None

let note_error o msg = if o.first_error = None then o.first_error <- Some msg

let mark_seen o ~origin ~app_seq =
  if origin < 0 || origin >= Array.length o.seen || app_seq < 1 then begin
    note_error o (Printf.sprintf "unknown message %d:%d" origin app_seq);
    false
  end
  else begin
    let b = o.seen.(origin) in
    if app_seq / 8 >= Bigarray.Array1.dim b then begin
      let nb = bits (8 * max (2 * Bigarray.Array1.dim b) ((app_seq / 8) + 1)) in
      Bigarray.Array1.blit b (Bigarray.Array1.sub nb 0 (Bigarray.Array1.dim b));
      o.seen.(origin) <- nb
    end;
    let b = o.seen.(origin) in
    let byte = Bigarray.Array1.unsafe_get b (app_seq / 8) in
    let bit = 1 lsl (app_seq land 7) in
    if byte land bit <> 0 then begin
      note_error o (Printf.sprintf "message %d:%d delivered twice" origin app_seq);
      false
    end
    else begin
      Bigarray.Array1.unsafe_set b (app_seq / 8) (byte lor bit);
      true
    end
  end

let order_note o ~node ~origin ~app_seq =
  let k = pack ~origin ~app_seq in
  let p = o.pos.(node) in
  if p < o.len then begin
    if o.common.{p} <> k then
      note_error o
        (Printf.sprintf "node %d delivered %d:%d at position %d, another node %d:%d"
           node origin app_seq p (origin_of o.common.{p}) (app_seq_of o.common.{p}))
  end
  else begin
    if o.len = Bigarray.Array1.dim o.common then
      o.common <- grow_ints o.common ~used:o.len (max 1024 (2 * o.len));
    ignore (mark_seen o ~origin ~app_seq);
    o.common.{o.len} <- k;
    o.len <- o.len + 1
  end;
  o.pos.(node) <- p + 1

let order_check name o =
  match o.first_error with
  | None -> pass name (Printf.sprintf "%d messages in one order" o.len)
  | Some e -> fail name e

(* Every submitted message delivered exactly once at every node: each
   node's sequence has [Σ submitted] messages and the common sequence
   is duplicate-free and within the submitted range per origin. *)
let exactly_once name o ~submitted =
  let total = Array.fold_left ( + ) 0 submitted in
  match o.first_error with
  | Some e -> fail name e
  | None ->
    let short = ref None in
    Array.iteri
      (fun node p -> if p <> total && !short = None then short := Some (node, p))
      o.pos;
    let out_of_range = ref None in
    for i = 0 to o.len - 1 do
      let origin = origin_of o.common.{i} and app_seq = app_seq_of o.common.{i} in
      if (origin >= Array.length submitted || app_seq > submitted.(origin))
         && !out_of_range = None
      then out_of_range := Some (origin, app_seq)
    done;
    (match (!short, !out_of_range) with
    | Some (node, p), _ ->
      fail name (Printf.sprintf "node %d delivered %d of %d submitted" node p total)
    | None, Some (origin, app_seq) ->
      fail name (Printf.sprintf "delivered %d:%d was never submitted" origin app_seq)
    | None, None ->
      pass name (Printf.sprintf "%d messages at each of %d nodes" total (Array.length o.pos)))

(* --- throughput ----------------------------------------------------- *)

(* Delivered payload cannot exceed what the networks carrying distinct
   data can move: 100 Mbit/s per network, of which a full 1518-byte
   Ethernet frame carries 1424 payload bytes. KB = 1024 bytes, as the
   figures report it. *)
let kb_ceiling ~nets_with_data ~bandwidth_bps ~frame_bytes ~payload_bytes =
  float_of_int nets_with_data *. float_of_int bandwidth_bps /. 8.0
  *. float_of_int payload_bytes /. float_of_int frame_bytes /. 1024.0

let kb_bound name ~ceiling kbps =
  check name (kbps <= ceiling)
    (Printf.sprintf "%.0f KB/s, ceiling %.0f KB/s" kbps ceiling)

(* The Sec. 8 shape on one sweep: arrays indexed like [sizes]. *)
let sec8_shape ~label ~sizes ~none_rate ~active_rate ~passive_rate ~none_kb =
  let idx size =
    let r = ref (-1) in
    Array.iteri (fun i s -> if s = size then r := i) sizes;
    if !r < 0 then invalid_arg (Printf.sprintf "sec8_shape: size %d not swept" size);
    !r
  in
  let k = idx 1024 in
  let peak size =
    let i = idx size in
    let left = if i > 0 then none_kb.(i - 1) else neg_infinity in
    let right = if i + 1 < Array.length sizes then none_kb.(i + 1) else neg_infinity in
    check
      (Printf.sprintf "%s: KB/s peaks at %d B" label size)
      (none_kb.(i) > left && none_kb.(i) > right)
      (Printf.sprintf "%.0f vs neighbours %.0f, %.0f" none_kb.(i) left right)
  in
  let ratio = ref 0.0 in
  Array.iteri
    (fun i n -> if n > 0.0 then ratio := Float.max !ratio (passive_rate.(i) /. n))
    none_rate;
  [
    check
      (Printf.sprintf "%s: active below unreplicated at 1 KB" label)
      (active_rate.(k) < none_rate.(k))
      (Printf.sprintf "active %.0f, unreplicated %.0f msg/s" active_rate.(k) none_rate.(k));
    check
      (Printf.sprintf "%s: passive above unreplicated at 1 KB" label)
      (passive_rate.(k) > none_rate.(k))
      (Printf.sprintf "passive %.0f, unreplicated %.0f msg/s" passive_rate.(k)
         none_rate.(k));
    peak 700;
    peak 1400;
    check
      (Printf.sprintf "%s: passive under 2x unreplicated" label)
      (!ratio < 2.0)
      (Printf.sprintf "largest ratio %.2f" !ratio);
  ]

(* --- latency -------------------------------------------------------- *)

(* A message cannot arrive sooner than the fastest network's latency
   plus the time its own bytes take on a 100 Mbit/s wire. *)
let latency_floor_ns ~min_latency_ns ~bytes ~bandwidth_bps =
  min_latency_ns + (bytes * 8 * 1_000_000_000 / bandwidth_bps)

let latency_floor name ~lowest_ns ~floor_ns =
  check name (lowest_ns >= floor_ns)
    (Printf.sprintf "lowest %d ns, floor %d ns" lowest_ns floor_ns)

(* Exact p50 and p99 of the first [n] values of [a]: the values at
   rank ceil(q n). Sorts those values in place (heapsort, so nothing is
   allocated). *)
let p50_p99 (a : ints) n =
  if n = 0 then (nan, nan)
  else begin
    let get = Bigarray.Array1.unsafe_get a and set = Bigarray.Array1.unsafe_set a in
    let rec sift i len =
      let l = (2 * i) + 1 in
      if l < len then begin
        let c = if l + 1 < len && get (l + 1) > get l then l + 1 else l in
        if get c > get i then begin
          let t = get i in
          set i (get c);
          set c t;
          sift c len
        end
      end
    in
    for i = (n / 2) - 1 downto 0 do
      sift i n
    done;
    for last = n - 1 downto 1 do
      let t = get 0 in
      set 0 (get last);
      set last t;
      sift 0 last
    done;
    let at q = float_of_int (get (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))) in
    (at 0.5, at 0.99)
  end

(* --- exploration ---------------------------------------------------- *)

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let leaf_count name ~alphabet_len ~depth ~explored ~pruned =
  let total = pow alphabet_len depth in
  check name (explored + pruned = total)
    (Printf.sprintf "%d explored + %d pruned, %d^%d = %d" explored pruned
       alphabet_len depth total)

let no_violation name ~found =
  check name (found = None)
    (match found with None -> "no violation" | Some v -> "violation: " ^ v)

let canary name ~found =
  check name (found <> None)
    (match found with
    | None -> "the weakened protocol passed: the explorer saw nothing"
    | Some v -> "caught: " ^ v)
