open Totem_engine

(* Partitioned-mode send buffer: frames a node asked to transmit
   during a parallel window, held until the barrier. One outbox per
   source node, flattened into parallel growable arrays that are reused
   across flushes — buffering a send allocates nothing — with the slot
   index as the per-source emission seq, so (time, src, index) is the
   unique canonical merge key.

   Entries are naturally time-sorted: a node's sends carry its
   partition clock, which only moves forward inside a window. The one
   exception is a coordinator-originated send (stamped with the
   coordinator clock, which parks at the window start) interleaving
   with the node's own later sends; [sorted] tracks it and the flush
   re-sorts that outbox before merging. Outboxes are only ever touched
   by their own partition's domain during a window and by the
   coordinator at barriers, so none of this state is shared. *)
type outbox = {
  mutable times : Vtime.t array;
  mutable nets : int array;
  mutable dsts : int array; (* -1 = broadcast *)
  mutable frames : Frame.t array;
  mutable len : int;
  mutable earliest : Vtime.t; (* min over buffered entries; meaningless at len = 0 *)
  mutable sorted : bool;
}

let dummy_frame = { Frame.src = 0; payload_bytes = 0; payload = Frame.Opaque "" }

let outbox_create () =
  {
    times = [||];
    nets = [||];
    dsts = [||];
    frames = [||];
    len = 0;
    earliest = Vtime.zero;
    sorted = true;
  }

let outbox_push ob ~time ~net ~dst frame =
  let i = ob.len in
  if i = Array.length ob.times then begin
    let cap = if i = 0 then 64 else 2 * i in
    let times = Array.make cap Vtime.zero in
    let nets = Array.make cap 0 in
    let dsts = Array.make cap 0 in
    let frames = Array.make cap dummy_frame in
    Array.blit ob.times 0 times 0 i;
    Array.blit ob.nets 0 nets 0 i;
    Array.blit ob.dsts 0 dsts 0 i;
    Array.blit ob.frames 0 frames 0 i;
    ob.times <- times;
    ob.nets <- nets;
    ob.dsts <- dsts;
    ob.frames <- frames
  end;
  if i = 0 then ob.earliest <- time
  else begin
    if Vtime.(time < ob.times.(i - 1)) then ob.sorted <- false;
    ob.earliest <- Vtime.min ob.earliest time
  end;
  ob.times.(i) <- time;
  ob.nets.(i) <- net;
  ob.dsts.(i) <- dst;
  ob.frames.(i) <- frame;
  ob.len <- i + 1

let outbox_clear ob =
  Array.fill ob.frames 0 ob.len dummy_frame;
  ob.len <- 0;
  ob.sorted <- true

(* Stable in-place sort of one outbox by time, preserving push order at
   equal times (the canonical seq). Only taken when a coordinator-
   originated send broke monotonicity, so allocation here is fine. *)
let outbox_sort ob =
  let n = ob.len in
  let order = Array.init n (fun i -> i) in
  let key = Array.copy ob.times in
  Array.stable_sort (fun a b -> Vtime.compare key.(a) key.(b)) order;
  let times = Array.init n (fun i -> ob.times.(order.(i))) in
  let nets = Array.init n (fun i -> ob.nets.(order.(i))) in
  let dsts = Array.init n (fun i -> ob.dsts.(order.(i))) in
  let frames = Array.init n (fun i -> ob.frames.(order.(i))) in
  Array.blit times 0 ob.times 0 n;
  Array.blit nets 0 ob.nets 0 n;
  Array.blit dsts 0 ob.dsts 0 n;
  Array.blit frames 0 ob.frames 0 n;
  ob.sorted <- true

type t = {
  sim : Sim.t;
  networks : Network.t array;
  nics : Nic.t option array array; (* nics.(node).(net) *)
  num_nodes : int;
  telemetry : Telemetry.t option;
  (* Sending-NIC serialization hook: in byte-wire mode the cluster
     installs the codec's frame encoder here, so every payload crosses
     the fabric as checksummed bytes. A closure keeps the net layer
     free of any dependency on the protocol codec. *)
  mutable wire_encoder : (Frame.t -> Frame.t) option;
  (* One-slot memo of the last (input, encoded) pair, keyed on the
     physical identity of the input frame: the RRP styles broadcast the
     same frame value on every network back to back, so the encoder
     runs once per logical frame instead of once per network. *)
  mutable memoize : bool;
  mutable last_out : (Frame.t * Frame.t) option;
  (* Parallel core: per-node partition simulators (NICs schedule
     arrivals on their node's partition) and per-node outboxes (sends
     buffer during windows and flush at barriers in canonical order).
     None = classic single-simulator mode, the default. *)
  mutable partitions : Sim.t array option;
  mutable node_telemetry : Telemetry.t array option;
  outboxes : outbox array;
  (* Earliest buffered send across all outboxes, [Vtime.never] when all
     are empty: the exchange polls [outbox_next] once per window and
     once per event inside adaptive solo windows, so it must be a field
     read, not a fold. Maintained by [enqueue] / [flush_outboxes]. *)
  mutable out_earliest : Vtime.t;
  (* Scratch cursors for the k-way barrier merge, preallocated so the
     per-window flush allocates nothing. *)
  out_cursors : int array;
}

let create sim ~num_nodes ~num_nets ?(config = Network.default_config) ?configs
    ?telemetry () =
  if num_nodes <= 0 then invalid_arg "Fabric.create: need at least one node";
  if num_nets <= 0 then invalid_arg "Fabric.create: need at least one network";
  (match configs with
  | Some cs when Array.length cs <> num_nets ->
    invalid_arg "Fabric.create: configs length mismatch"
  | _ -> ());
  let config_of i =
    match configs with Some cs -> cs.(i) | None -> config
  in
  let networks =
    Array.init num_nets (fun i ->
        Network.create sim ~id:i ~config:(config_of i) ~rng:(Sim.split_rng sim))
  in
  (match telemetry with
  | Some tl -> Array.iter (fun n -> Network.set_telemetry n tl) networks
  | None -> ());
  {
    sim;
    networks;
    nics = Array.make_matrix num_nodes num_nets None;
    num_nodes;
    telemetry;
    wire_encoder = None;
    memoize = true;
    last_out = None;
    partitions = None;
    node_telemetry = None;
    outboxes = Array.init num_nodes (fun _ -> outbox_create ());
    out_earliest = Vtime.never;
    out_cursors = Array.make num_nodes 0;
  }

let set_partitions t ?node_telemetry sims =
  if Array.length sims <> t.num_nodes then
    invalid_arg "Fabric.set_partitions: one simulator per node required";
  (match node_telemetry with
  | Some tls when Array.length tls <> t.num_nodes ->
    invalid_arg "Fabric.set_partitions: one telemetry hub per node required"
  | _ -> ());
  if Array.exists (fun row -> Array.exists Option.is_some row) t.nics then
    invalid_arg "Fabric.set_partitions: must be called before attach_node";
  t.partitions <- Some sims;
  t.node_telemetry <- node_telemetry

let partitioned t = t.partitions <> None

let min_latency t =
  Array.fold_left
    (fun acc net -> Vtime.min acc (Network.min_latency net))
    (Network.min_latency t.networks.(0))
    t.networks

let set_wire_encoder t ?(memoize = true) f =
  t.wire_encoder <- Some f;
  t.memoize <- memoize;
  t.last_out <- None

let outgoing t frame =
  match t.wire_encoder with
  | None -> frame
  | Some f ->
    if not t.memoize then f frame
    else begin
      match t.last_out with
      | Some (input, encoded) when input == frame -> encoded
      | _ ->
        let encoded = f frame in
        t.last_out <- Some (frame, encoded);
        encoded
    end

let num_nodes t = t.num_nodes
let num_nets t = Array.length t.networks
let network t i = t.networks.(i)
let fault t i = Network.fault t.networks.(i)

let nic t ~node ~net =
  match t.nics.(node).(net) with
  | Some nic -> nic
  | None -> invalid_arg (Printf.sprintf "Fabric.nic: node %d not attached" node)

let attach_node t ~node ?cpu ?recv_cost ?buffer_bytes handler =
  (* In partitioned mode the NIC lives on its node's partition: arrival
     events land in the node's own queue, and drop telemetry buffers
     through the node's hub so it merges canonically. *)
  let nic_sim =
    match t.partitions with Some sims -> sims.(node) | None -> t.sim
  in
  let nic_tl =
    match t.node_telemetry with
    | Some tls -> Some tls.(node)
    | None -> t.telemetry
  in
  Array.iteri
    (fun net_id network ->
      let nic = Nic.create nic_sim ~node ~net:net_id ?buffer_bytes () in
      (match nic_tl with
      | Some tl -> Nic.set_telemetry nic tl
      | None -> ());
      Nic.set_receiver nic ?cpu ?recv_cost (fun frame ->
          handler ~net:net_id frame);
      Network.attach network nic;
      t.nics.(node).(net_id) <- Some nic)
    t.networks

(* Partitioned sends buffer in the sender's outbox. The timestamp is
   the sender partition's clock — exact for node-originated sends (the
   partition clock reads the current event's time) — maxed with the
   coordinator clock so coordinator-originated sends (bootstrap,
   harness injections) are stamped with the coordinator event's time. *)
let enqueue t sims ~net ~dst frame =
  let src = frame.Frame.src in
  let time = Vtime.max (Sim.now sims.(src)) (Sim.now t.sim) in
  if Vtime.(time < t.out_earliest) then t.out_earliest <- time;
  outbox_push t.outboxes.(src) ~time ~net ~dst frame

let broadcast t ~net frame =
  match t.partitions with
  | None -> Network.broadcast t.networks.(net) (outgoing t frame)
  | Some sims -> enqueue t sims ~net ~dst:(-1) frame

let unicast t ~net ~dst frame =
  match t.partitions with
  | None -> Network.unicast t.networks.(net) ~dst (outgoing t frame)
  | Some sims -> enqueue t sims ~net ~dst frame

(* Earliest buffered send, so the exchange's idle-jump cannot leap over
   work created outside a window (e.g. the bootstrap token at t=0), and
   its skip-flush / adaptive-cap checks see pending traffic in O(1). *)
let outbox_next t = t.out_earliest

(* Barrier flush: merge all outboxes in canonical (time, src, seq)
   order and play each send through the classic medium path — shared
   medium occupancy, loss/corruption/jitter draws from the per-network
   RNG stream, delivery scheduling — with the coordinator clock set to
   the send's own timestamp. Because the order is a pure function of
   simulation content, the whole network layer stays deterministic
   under any domain count. Each outbox is already time-sorted (seq is
   the slot index), so the canonical order is a k-way walk over
   per-node cursors — no sort, no scratch allocation. The wire-encoder
   memo keeps paying off: merging whole (time, src) runs in seq order
   keeps a frame's per-network copies adjacent. *)
let replay_one t ob cur =
  Sim.unsafe_set_clock t.sim ob.times.(cur);
  let frame = outgoing t ob.frames.(cur) in
  let net = ob.nets.(cur) in
  match ob.dsts.(cur) with
  | -1 -> Network.broadcast t.networks.(net) frame
  | dst -> Network.unicast t.networks.(net) ~dst frame

let flush_outboxes t =
  let boxes = t.outboxes in
  let n = Array.length boxes in
  let nonempty = ref 0 in
  let last = ref 0 in
  for i = 0 to n - 1 do
    let ob = boxes.(i) in
    if ob.len > 0 then begin
      incr nonempty;
      last := i;
      if not ob.sorted then outbox_sort ob
    end
  done;
  if !nonempty = 1 then begin
    (* The common window under token rotation: one sender. Its sorted
       outbox already is the canonical order — replay linearly, no
       merge state at all. *)
    let ob = boxes.(!last) in
    for cur = 0 to ob.len - 1 do
      replay_one t ob cur
    done;
    outbox_clear ob
  end
  else if !nonempty > 0 then begin
    let curs = t.out_cursors in
    Array.fill curs 0 n 0;
    let continue = ref true in
    while !continue do
      let best = ref (-1) in
      let best_time = ref Vtime.zero in
      for i = 0 to n - 1 do
        let ob = boxes.(i) in
        if curs.(i) < ob.len then begin
          let tm = ob.times.(curs.(i)) in
          (* strict <: at equal times the lower node id goes first *)
          if !best < 0 || Vtime.(tm < !best_time) then begin
            best := i;
            best_time := tm
          end
        end
      done;
      if !best < 0 then continue := false
      else begin
        let ob = boxes.(!best) in
        let cur = curs.(!best) in
        curs.(!best) <- cur + 1;
        replay_one t ob cur
      end
    done;
    Array.iter outbox_clear boxes
  end;
  t.out_earliest <- Vtime.never

let iter_networks t f = Array.iter f t.networks
