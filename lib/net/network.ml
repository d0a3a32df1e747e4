open Totem_engine

type config = {
  bandwidth_bps : int;
  latency : Vtime.t;
  jitter : Vtime.t;
  arp_delay : Vtime.t;
}

let default_config =
  {
    bandwidth_bps = 100_000_000;
    latency = Vtime.us 30;
    jitter = Vtime.us 5;
    arp_delay = Vtime.us 300;
  }

type t = {
  sim : Sim.t;
  net_id : Addr.net_id;
  config : config;
  rng : Rng.t;
  fault : Fault.t;
  nics : (Addr.node_id, Nic.t) Hashtbl.t;
  (* Receivers sorted by ascending node id, rebuilt on [attach]: the
     broadcast fast path must not fold + sort the nic table per frame. *)
  mutable receivers : Nic.t array;
  arp_cache : (Addr.node_id * Addr.node_id, unit) Hashtbl.t;
  mutable medium_free_at : Vtime.t;
  sent : Stats.Counter.t;
  lost : Stats.Counter.t;
  faulted : Stats.Counter.t;
  corrupted : Stats.Counter.t;
  (* gray-failure dimensions, one counter each *)
  burst_lost : Stats.Counter.t;
  dir_lost : Stats.Counter.t;
  delay_spiked : Stats.Counter.t;
  duplicated : Stats.Counter.t;
  reordered : Stats.Counter.t;
  mutable wire_bytes : int;
  mutable telemetry : Telemetry.t option;
}

let create sim ~id ~config ~rng =
  {
    sim;
    net_id = id;
    config;
    rng;
    fault = Fault.create ();
    nics = Hashtbl.create 16;
    receivers = [||];
    arp_cache = Hashtbl.create 32;
    medium_free_at = Vtime.zero;
    sent = Stats.Counter.create ();
    lost = Stats.Counter.create ();
    faulted = Stats.Counter.create ();
    corrupted = Stats.Counter.create ();
    burst_lost = Stats.Counter.create ();
    dir_lost = Stats.Counter.create ();
    delay_spiked = Stats.Counter.create ();
    duplicated = Stats.Counter.create ();
    reordered = Stats.Counter.create ();
    wire_bytes = 0;
    telemetry = None;
  }

let id t = t.net_id
let config t = t.config
let fault t = t.fault

(* The lookahead bound: jitter is non-negative and the FIFO clamp only
   pushes arrivals later, so no frame arrives earlier than
   [send + latency]. *)
let min_latency t = t.config.latency

let set_telemetry t tl =
  t.telemetry <- Some tl;
  (* Fault-state changes (down/heal/loss) become Net_status events. *)
  Fault.set_notify t.fault (fun status ->
      if Telemetry.active tl then
        Telemetry.emit tl (Telemetry.Net_status { net = t.net_id; status }))

let attach t nic =
  let node = Nic.node nic in
  if Hashtbl.mem t.nics node then
    invalid_arg (Printf.sprintf "Network.attach: node %d already attached" node);
  Hashtbl.replace t.nics node nic;
  let rs = Array.make (Hashtbl.length t.nics) nic in
  let i = ref 0 in
  Hashtbl.iter
    (fun _ nic ->
      rs.(!i) <- nic;
      incr i)
    t.nics;
  Array.sort (fun a b -> Int.compare (Nic.node a) (Nic.node b)) rs;
  t.receivers <- rs

(* Claim the shared medium for one frame; returns the instant the last
   bit leaves the wire. *)
let occupy_medium t frame =
  let start = Vtime.max t.medium_free_at (Sim.now t.sim) in
  let duration = Frame.serialization_time ~bandwidth_bps:t.config.bandwidth_bps frame in
  t.medium_free_at <- Vtime.add start duration;
  Stats.Counter.incr t.sent;
  t.wire_bytes <- t.wire_bytes + Frame.wire_bytes frame;
  t.medium_free_at

(* The corruption fault model (paper Sec. 3): a byte-faithful frame is
   mutated in flight — bit flip, truncation or garbage substitution,
   drawn from the same per-network RNG stream as loss and jitter — and
   still delivered; the receiving NIC's CRC/decode check discards it.
   A reference-passing payload has no bytes to damage, so corruption
   degenerates to the loss the Ethernet checksum would have caused
   ([None]). *)
let corrupt_frame t frame =
  Stats.Counter.incr t.corrupted;
  let kind, payload =
    match frame.Frame.payload with
    | Frame.Bytes s when String.length s > 0 ->
      let len = String.length s in
      (match Rng.int t.rng 3 with
      | 0 ->
        let bit = Rng.int t.rng (8 * len) in
        let b = Bytes.of_string s in
        Bytes.set b (bit / 8)
          (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit land 7))));
        ("flip", Some (Frame.Bytes (Bytes.unsafe_to_string b)))
      | 1 -> ("trunc", Some (Frame.Bytes (String.sub s 0 (Rng.int t.rng len))))
      | _ ->
        let start = Rng.int t.rng len in
        let n = 1 + Rng.int t.rng (len - start) in
        let b = Bytes.of_string s in
        for i = start to start + n - 1 do
          Bytes.set b i (Char.chr (Rng.int t.rng 256))
        done;
        ("garble", Some (Frame.Bytes (Bytes.unsafe_to_string b))))
    | _ -> ("drop", None)
  in
  (match t.telemetry with
  | Some tl when Telemetry.active tl ->
    Telemetry.emit tl
      (Telemetry.Frame_corrupt { net = t.net_id; src = frame.Frame.src; kind })
  | _ -> ());
  match payload with
  | Some payload -> Some { frame with Frame.payload }
  | None -> None

let emit_loss t frame counter =
  Stats.Counter.incr counter;
  match t.telemetry with
  | Some tl when Telemetry.active tl ->
    Telemetry.emit tl
      (Telemetry.Frame_loss { net = t.net_id; src = frame.Frame.src })
  | _ -> ()

(* Target the receiver's own simulator: under the parallel core each
   NIC schedules on its node's partition, and the lookahead guarantee
   (arrival >= send + latency >= next barrier) makes this landing always
   in that partition's future. Single-domain mode is unchanged — every
   NIC shares the network's sim. *)
let deliver_at nic frame time =
  ignore (Sim.schedule_at (Nic.sim nic) ~time (fun () -> Nic.deliver nic frame))

(* The frame survived the fault checks and the corruption draw: the
   gray-failure processes, every draw guarded by its enabled predicate
   so a gray-free network consumes no randomness at all — existing
   seeds and every sim_domains replay bit-for-bit. Draw order is fixed:
   per-direction loss, one Gilbert–Elliott chain step, delay spike,
   duplicate, reorder, then the historical jitter draw. Top-level
   functions rather than local closures keep the per-frame path free of
   allocation beyond the delivery event itself. *)
let transmit t nic frame ~dst ~wire_done =
  let dir_p = Fault.dir_loss_probability t.fault ~src:frame.Frame.src ~dst in
  if dir_p > 0.0 && Rng.bernoulli t.rng dir_p then emit_loss t frame t.dir_lost
  else begin
    let bursty =
      Fault.burst_enabled t.fault
      && begin
           (* One chain step per delivery attempt: bursts correlate
              consecutive deliveries on this network. *)
           let p_enter, p_exit = Fault.burst_loss t.fault in
           let bad =
             if Fault.in_burst t.fault then not (Rng.bernoulli t.rng p_exit)
             else Rng.bernoulli t.rng p_enter
           in
           Fault.set_in_burst t.fault bad;
           bad
         end
    in
    if bursty then emit_loss t frame t.burst_lost
    else begin
      (* Latency inflation: the multiplicative factor is deterministic;
         the spike draws. Both only add delay, so the lookahead bound
         (arrival >= send + latency) holds. *)
      let extra =
        let f = Fault.delay_factor t.fault in
        if f > 1.0 then
          Vtime.ns (int_of_float ((f -. 1.0) *. float_of_int t.config.latency))
        else Vtime.zero
      in
      let extra =
        if Fault.spike_enabled t.fault then begin
          let spike_p, spike_ns = Fault.delay_spike t.fault in
          if Rng.bernoulli t.rng spike_p then begin
            Stats.Counter.incr t.delay_spiked;
            Vtime.add extra (Vtime.ns (1 + Rng.int t.rng spike_ns))
          end
          else extra
        end
        else extra
      in
      let dup =
        let p = Fault.duplicate_probability t.fault in
        p > 0.0 && Rng.bernoulli t.rng p
      in
      let reorder_extra =
        let p = Fault.reorder_probability t.fault in
        if p > 0.0 && Rng.bernoulli t.rng p then begin
          Stats.Counter.incr t.reordered;
          (* held back far enough for later frames to overtake *)
          Vtime.ns (1 + Rng.int t.rng (4 * t.config.latency))
        end
        else Vtime.zero
      in
      let jitter =
        if t.config.jitter = Vtime.zero then Vtime.zero
        else Vtime.ns (Rng.int t.rng (t.config.jitter + 1))
      in
      let arrival =
        Vtime.add (Vtime.add (Vtime.add wire_done t.config.latency) extra) jitter
      in
      (* Per-receiver FIFO on a single network (Sec. 5 assumption). *)
      let arrival =
        Vtime.max arrival (Vtime.add (Nic.last_arrival nic) (Vtime.ns 1))
      in
      Nic.note_arrival nic arrival;
      (* A reordered frame is held back past its FIFO slot — the slot
         itself stays the un-inflated arrival, so later frames clamp
         against it and can overtake. *)
      deliver_at nic frame (Vtime.add arrival reorder_extra);
      if dup then begin
        Stats.Counter.incr t.duplicated;
        let copy_at = Vtime.add arrival (Vtime.ns 1) in
        Nic.note_arrival nic copy_at;
        deliver_at nic frame copy_at
      end
    end
  end

let deliver_to t nic frame ~wire_done =
  let dst = Nic.node nic in
  if not (Fault.delivers t.fault ~src:frame.Frame.src ~dst) then begin
    Stats.Counter.incr t.faulted;
    match t.telemetry with
    | Some tl when Telemetry.active tl ->
      Telemetry.emit tl
        (Telemetry.Frame_blocked { net = t.net_id; src = frame.Frame.src; dst })
    | _ -> ()
  end
  else if
    (* Skip the random draw entirely on loss-free networks: one float
       draw per delivery is pure overhead in the common case. *)
    let p = Fault.loss_probability t.fault in
    p > 0.0 && Rng.bernoulli t.rng p
  then begin
    Stats.Counter.incr t.lost;
    match t.telemetry with
    | Some tl when Telemetry.active tl ->
      Telemetry.emit tl
        (Telemetry.Frame_loss { net = t.net_id; src = frame.Frame.src })
    | _ -> ()
  end
  else begin
    (* Corruption draw, guarded like loss so corruption-free networks
       consume no extra randomness (the RNG stream — and therefore every
       jitter draw downstream — is unchanged when the model is off). *)
    let p = Fault.corruption_probability t.fault in
    if p > 0.0 && Rng.bernoulli t.rng p then
      match corrupt_frame t frame with
      | None -> () (* reference-passing payload: corruption surfaced as loss *)
      | Some frame -> transmit t nic frame ~dst ~wire_done
    else transmit t nic frame ~dst ~wire_done
  end

let medium_accepts t frame =
  (not (Fault.is_down t.fault)) && not (Fault.send_blocked t.fault frame.Frame.src)

let broadcast t frame =
  if medium_accepts t frame then begin
    let wire_done = occupy_medium t frame in
    (* Deterministic receiver order: ascending node id (the cached
       array is kept sorted by [attach]). Zero allocation per frame. *)
    let rs = t.receivers in
    for i = 0 to Array.length rs - 1 do
      let nic = rs.(i) in
      if Nic.node nic <> frame.Frame.src then deliver_to t nic frame ~wire_done
    done
  end

(* The paper's footnote 2: a unicast to a peer whose MAC is not yet
   resolved waits for the ARP exchange, during which later frames to
   *other* recipients can overtake it. Per-recipient FIFO still holds. *)
let arp_resolution t frame ~dst =
  let key = (frame.Frame.src, dst) in
  if Hashtbl.mem t.arp_cache key then Vtime.zero
  else begin
    Hashtbl.replace t.arp_cache key ();
    t.config.arp_delay
  end

let unicast t ~dst frame =
  if medium_accepts t frame then begin
    let arp = arp_resolution t frame ~dst in
    let wire_done = Vtime.add (occupy_medium t frame) arp in
    match Hashtbl.find_opt t.nics dst with
    | None -> Stats.Counter.incr t.faulted
    | Some nic -> deliver_to t nic frame ~wire_done
  end

let frames_sent t = Stats.Counter.value t.sent

let frames_delivered t =
  Array.fold_left (fun acc nic -> acc + Nic.frames_delivered nic) 0 t.receivers
let frames_lost t = Stats.Counter.value t.lost
let frames_faulted t = Stats.Counter.value t.faulted
let frames_corrupted t = Stats.Counter.value t.corrupted
let frames_burst_lost t = Stats.Counter.value t.burst_lost
let frames_dir_lost t = Stats.Counter.value t.dir_lost
let frames_delay_spiked t = Stats.Counter.value t.delay_spiked
let frames_duplicated t = Stats.Counter.value t.duplicated
let frames_reordered t = Stats.Counter.value t.reordered
let bytes_on_wire t = t.wire_bytes
let busy_until t = t.medium_free_at
