open Totem_engine
module Srp = Totem_srp
module Rrp = Totem_rrp

type node = {
  id : Totem_net.Addr.node_id;
  cpu : Cpu.t;
  srp : Srp.Srp.t;
  rrp : Rrp.Rrp.t;
}

type t = {
  config : Config.t;
  sim : Sim.t;
  fabric : Totem_net.Fabric.t;
  telemetry : Telemetry.t;
  mutable nodes : node array;
  mutable deliver_hooks :
    (Totem_net.Addr.node_id -> Srp.Message.t -> unit) list;
  mutable submit_hooks : (Totem_net.Addr.node_id -> tid:int -> Vtime.t -> unit) list;
  mutable report_hooks :
    (Totem_net.Addr.node_id -> Rrp.Fault_report.t -> unit) list;
  mutable ring_hooks :
    (Totem_net.Addr.node_id ->
    ring_id:int ->
    members:Totem_net.Addr.node_id array ->
    unit)
    list;
  mutable reports : (Totem_net.Addr.node_id * Rrp.Fault_report.t) list;
  (* Decode-once delivery (wire mode with wire_cache): one cache per
     cluster, shared by every receiving NIC — the point is precisely
     that M receivers of a broadcast recognize the same physical byte
     string. Per-cluster, never global: bench sweeps run clusters on
     parallel domains. Under the parallel core the cache is per node
     instead ([decode_caches]): receivers on different domains must not
     share a mutable cache, so each node recognizes its own copy once. *)
  decode_cache : Srp.Codec.decode_cache option;
  decode_caches : Srp.Codec.decode_cache array option;
  (* Parallel simulator core (Config.sim_domains > 0): per-node
     partition simulators and buffered telemetry hubs, synchronized by
     the exchange. In classic mode every slot aliases [sim] / [telemetry]
     and [exchange] is [None]. *)
  node_sims : Sim.t array;
  node_tele : Telemetry.t array;
  mutable exchange : Exchange.t option;
}

let rec call_deliver_hooks id m = function
  | [] -> ()
  | h :: rest ->
    h id m;
    call_deliver_hooks id m rest

let build_node t id =
  let config = t.config in
  (* Classic mode: every node's sim/telemetry alias the cluster's. Under
     the parallel core each node gets its own partition and buffered
     hub, and cluster-level hook callbacks are deferred through the hub
     so they fire at barriers in canonical (time, node, seq) order. *)
  let nsim = t.node_sims.(id) in
  let ntl = t.node_tele.(id) in
  let cpu = Cpu.create nsim ~name:(Printf.sprintf "cpu%d" id) in
  let rrp =
    Rrp.Rrp.create nsim ~fabric:t.fabric ~node:id ~const:config.Config.const
      ~config:config.Config.rrp ~style:config.Config.style ~telemetry:ntl ()
  in
  let callbacks =
    {
      Srp.Srp.on_deliver =
        (fun m ->
          if t.deliver_hooks <> [] then
            if Telemetry.buffering ntl then
              Telemetry.defer ntl (fun () ->
                  call_deliver_hooks id m t.deliver_hooks)
            else call_deliver_hooks id m t.deliver_hooks);
      on_ring_change =
        (fun ~ring_id ~members ->
          if t.ring_hooks <> [] then
            Telemetry.defer ntl (fun () ->
                List.iter (fun h -> h id ~ring_id ~members) t.ring_hooks));
    }
  in
  let srp =
    Srp.Srp.create nsim ~cpu ~const:config.Config.const ~me:id
      ~lower:(Rrp.Rrp.lower rrp) ~telemetry:ntl callbacks
  in
  Rrp.Rrp.connect rrp
    ~deliver_data:(Srp.Srp.recv_data srp)
    ~deliver_token:(Srp.Srp.token_arrived srp)
    ~deliver_join:(Srp.Srp.recv_join srp)
    ~deliver_probe:(Srp.Srp.recv_probe srp)
    ~deliver_commit:(Srp.Srp.recv_commit srp)
    ~my_aru:(fun () -> Srp.Srp.my_aru srp)
    ~my_ring_id:(fun () -> Srp.Srp.current_ring_id srp)
    ~on_fault_report:(fun report ->
      Telemetry.defer ntl (fun () ->
          t.reports <- t.reports @ [ (id, report) ];
          List.iter (fun h -> h id report) t.report_hooks));
  let recv_cost frame =
    Srp.Const.frame_cpu_cost config.Config.const
      ~payload_bytes:frame.Totem_net.Frame.payload_bytes
  in
  let shadow frame =
    if config.Config.codec_shadow then begin
      match Srp.Codec.shadow_check frame.Totem_net.Frame.payload with
      | Ok () -> ()
      | Error msg -> failwith ("codec shadow check failed: " ^ msg)
    end
  in
  (* The receiving-NIC end of wire mode: CRC check, total decode and
     semantic validation; any failure discards the frame before the RRP
     sees it, which is how corruption becomes the loss that feeds
     problemCounter (active) and stalls recvCount (passive). *)
  let decode_cache =
    match t.decode_caches with
    | Some caches -> Some caches.(id)
    | None -> t.decode_cache
  in
  let receive ~net frame =
    match frame.Totem_net.Frame.payload with
    | Totem_net.Frame.Bytes _ -> (
      match
        Srp.Codec.decode_frame ?cache:decode_cache
          ~max_node:(config.Config.num_nodes - 1) frame
      with
      | Ok frame ->
        shadow frame;
        Rrp.Rrp.frame_received rrp ~net frame
      | Error err ->
        let tl = ntl in
        if Telemetry.active tl then
          Telemetry.emit tl
            (match err with
            | Srp.Codec.Crc_mismatch ->
              Telemetry.Frame_crc_reject
                { node = id; net; src = frame.Totem_net.Frame.src }
            | Srp.Codec.Malformed e ->
              Telemetry.Frame_decode_reject
                {
                  node = id;
                  net;
                  src = frame.Totem_net.Frame.src;
                  error = Format.asprintf "%a" Srp.Codec.pp_error e;
                }))
    | _ ->
      shadow frame;
      Rrp.Rrp.frame_received rrp ~net frame
  in
  Totem_net.Fabric.attach_node t.fabric ~node:id ~cpu ~recv_cost
    ~buffer_bytes:config.Config.buffer_bytes receive;
  { id; cpu; srp; rrp }

let create config =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
  let num_nodes = config.Config.num_nodes in
  let partitioned = config.Config.sim_domains > 0 in
  let sim = Sim.create ~seed:config.Config.seed () in
  (* One telemetry hub per cluster: string trace lines and structured
     events share its ring. *)
  let telemetry = Telemetry.create sim in
  (* Partition assignment is structural: one simulator per node plus the
     coordinator [sim], whatever the domain count — Config.sim_domains
     only sets how many workers execute them, which is what keeps
     figures bitwise-identical across domain counts. Node partitions
     carry derived seeds, but protocol code draws no randomness from
     them (all stochastic models live in the network layer, which runs
     coordinator-side at barriers); only node-targeted workload
     generators use node-partition streams. *)
  let node_sims =
    if partitioned then
      Array.init num_nodes (fun i ->
          Sim.create ~seed:(config.Config.seed + (1000003 * (i + 1))) ())
    else Array.make num_nodes sim
  in
  let node_tele =
    if partitioned then begin
      Telemetry.set_buffering telemetry true;
      Array.init num_nodes (fun i ->
          Telemetry.create_child telemetry ~source:i node_sims.(i))
    end
    else Array.make num_nodes telemetry
  in
  let fabric =
    Totem_net.Fabric.create sim ~num_nodes
      ~num_nets:config.Config.num_nets ~config:config.Config.net
      ?configs:config.Config.net_configs ~telemetry ()
  in
  if partitioned then
    Totem_net.Fabric.set_partitions fabric ~node_telemetry:node_tele node_sims;
  let cached = config.Config.wire_bytes && config.Config.wire_cache in
  let encode_cache =
    if cached then Some (Srp.Codec.encode_cache ()) else None
  in
  let t =
    {
      config;
      sim;
      fabric;
      telemetry;
      nodes = [||];
      deliver_hooks = [];
      submit_hooks = [];
      report_hooks = [];
      ring_hooks = [];
      reports = [];
      decode_cache =
        (if cached && not partitioned then Some (Srp.Codec.decode_cache ())
         else None);
      decode_caches =
        (if cached && partitioned then
           Some (Array.init num_nodes (fun _ -> Srp.Codec.decode_cache ()))
         else None);
      node_sims;
      node_tele;
      exchange = None;
    }
  in
  if config.Config.wire_bytes then begin
    (* The fabric-level memo and the codec-level caches are the two
       halves of encode-once fan-out; both off when wire_cache is
       false (the A/B baseline re-serializes every copy). *)
    Totem_net.Fabric.set_wire_encoder fabric ~memoize:cached (fun frame ->
        Srp.Codec.encode_frame ?cache:encode_cache frame);
    let decode_stats =
      match (t.decode_cache, t.decode_caches) with
      | Some dc, _ -> Some (fun () -> Srp.Codec.decode_cache_stats dc)
      | None, Some caches ->
        Some
          (fun () ->
            Array.fold_left
              (fun (h, m) dc ->
                let h', m' = Srp.Codec.decode_cache_stats dc in
                (h + h', m + m'))
              (0, 0) caches)
      | None, None -> None
    in
    match (encode_cache, decode_stats) with
    | Some ec, Some ds ->
      let g name read =
        Telemetry.gauge telemetry ("wire." ^ name) (fun () ->
            float_of_int (read ()))
      in
      g "encode_cache_hits" (fun () -> fst (Srp.Codec.encode_cache_stats ec));
      g "encode_cache_misses" (fun () ->
          snd (Srp.Codec.encode_cache_stats ec));
      g "decode_cache_hits" (fun () -> fst (ds ()));
      g "decode_cache_misses" (fun () -> snd (ds ()))
    | _ -> ()
  end;
  t.nodes <- Array.init num_nodes (build_node t);
  if partitioned then begin
    let exchange =
      Exchange.create ~domains:config.Config.sim_domains
        ~batching:config.Config.window_batch
        ~max_horizon_factor:config.Config.max_horizon_factor
        ~lookahead:(Totem_net.Fabric.min_latency fabric)
        ~global:sim ~parts:node_sims ()
    in
    (* Barrier order matters: flushing sends first lets the network
       layer's own telemetry (loss, corruption, blocks) join the same
       drain that dispatches node events. Both hooks report pending
       work via ~next — with batching on, a missing ~next would let a
       skip-flush barrier strand buffered work past its window. *)
    Exchange.add_barrier_hook exchange
      ~next:(fun () -> Totem_net.Fabric.outbox_next fabric)
      (fun _h1 -> Totem_net.Fabric.flush_outboxes fabric);
    let set_clock = Sim.unsafe_set_clock sim in
    Exchange.add_barrier_hook exchange
      ~next:(fun () -> Telemetry.buffered_next telemetry ~children:node_tele)
      (fun _h1 -> Telemetry.drain telemetry ~children:node_tele ~set_clock);
    let g name read =
      Telemetry.gauge telemetry ("exchange." ^ name) (fun () -> read ())
    in
    g "windows_run" (fun () ->
        float_of_int (Exchange.stats exchange).Exchange.windows_run);
    g "windows_batched" (fun () ->
        float_of_int (Exchange.stats exchange).Exchange.windows_batched);
    g "windows_widened" (fun () ->
        float_of_int (Exchange.stats exchange).Exchange.windows_widened);
    g "max_window_us" (fun () ->
        float_of_int (Exchange.stats exchange).Exchange.max_window /. 1000.);
    t.exchange <- Some exchange
  end;
  for i = 0 to config.Config.num_nets - 1 do
    let net = Totem_net.Fabric.network fabric i in
    let g name read =
      Telemetry.gauge telemetry
        (Printf.sprintf "net.%d.%s" i name)
        (fun () -> float_of_int (read net))
    in
    g "frames_sent" Totem_net.Network.frames_sent;
    g "frames_delivered" Totem_net.Network.frames_delivered;
    g "frames_lost" Totem_net.Network.frames_lost;
    g "frames_faulted" Totem_net.Network.frames_faulted;
    g "frames_corrupted" Totem_net.Network.frames_corrupted;
    g "frames_burst_lost" Totem_net.Network.frames_burst_lost;
    g "frames_dir_lost" Totem_net.Network.frames_dir_lost;
    g "frames_delay_spiked" Totem_net.Network.frames_delay_spiked;
    g "frames_duplicated" Totem_net.Network.frames_duplicated;
    g "frames_reordered" Totem_net.Network.frames_reordered;
    g "wire_bytes" Totem_net.Network.bytes_on_wire
  done;
  t

let all_members t = Array.init (Array.length t.nodes) (fun i -> i)

let start t =
  let members = all_members t in
  Array.iter
    (fun n -> Srp.Srp.install_ring n.srp ~ring_id:1 ~members)
    t.nodes;
  Srp.Srp.bootstrap_token t.nodes.(0).srp

let start_cold t =
  Array.iter (fun n -> Srp.Srp.start_gathering n.srp) t.nodes

let sim t = t.sim
let node_sim t id = t.node_sims.(id)
let now t = Sim.now t.sim

let run_until t time =
  match t.exchange with
  | Some ex -> Exchange.run_until ex time
  | None -> Sim.run_until t.sim time

let run_for t d = run_until t (Vtime.add (Sim.now t.sim) d)

let shutdown t =
  match t.exchange with Some ex -> Exchange.shutdown ex | None -> ()
let config t = t.config
let telemetry t = t.telemetry
let exchange t = t.exchange

let events_processed t =
  match t.exchange with
  | Some ex -> Exchange.events_processed ex
  | None -> Sim.events_processed t.sim

let num_nodes t = Array.length t.nodes
let node t id = t.nodes.(id)
let srp n = n.srp
let rrp n = n.rrp
let cpu n = n.cpu
let iter_nodes t f = Array.iter f t.nodes
let crash_node t id = Srp.Srp.crash t.nodes.(id).srp
let recover_node t id = Srp.Srp.recover t.nodes.(id).srp

let on_deliver t h = t.deliver_hooks <- t.deliver_hooks @ [ h ]
let on_submit t h = t.submit_hooks <- t.submit_hooks @ [ h ]

(* Submission hooks run like the deliver hooks: deferred through the
   node's hub, so under the parallel core they fire at the barrier in
   canonical order — before any delivery of the same message, which
   can only happen later in virtual time. *)
let submit t ~node ~size ?data () =
  let srp = t.nodes.(node).srp in
  Srp.Srp.submit srp ~size ?data ();
  if t.submit_hooks <> [] then begin
    let tid = Causal.tid_of ~origin:node ~app_seq:(Srp.Srp.last_app_seq srp) in
    let sent = Sim.now t.node_sims.(node) in
    Telemetry.defer t.node_tele.(node) (fun () ->
        List.iter (fun h -> h node ~tid sent) t.submit_hooks)
  end
let on_fault_report t h = t.report_hooks <- t.report_hooks @ [ h ]
let on_ring_change t h = t.ring_hooks <- t.ring_hooks @ [ h ]
let fault_reports t = t.reports

let fabric t = t.fabric

let fail_network t net =
  Totem_net.Fault.set_down (Totem_net.Fabric.fault t.fabric net) true

let heal_network t net =
  Totem_net.Fault.heal (Totem_net.Fabric.fault t.fabric net);
  Array.iter (fun n -> Rrp.Rrp.clear_fault n.rrp ~net) t.nodes

let set_network_loss t net p =
  Totem_net.Fault.set_loss_probability (Totem_net.Fabric.fault t.fabric net) p

let set_network_corruption t net p =
  Totem_net.Fault.set_corruption_probability
    (Totem_net.Fabric.fault t.fabric net)
    p

let set_network_burst_loss t net ~p_enter ~p_exit =
  Totem_net.Fault.set_burst_loss
    (Totem_net.Fabric.fault t.fabric net)
    ~p_enter ~p_exit

let set_network_delay t net ~factor ~spike_prob =
  (* Spikes are sized relative to the network's own propagation delay:
     a spike is uniform in [1, 10 * latency], i.e. up to an order of
     magnitude above nominal — large enough to trip timers, small
     enough to stay within one token timeout at the defaults. *)
  let network = Totem_net.Fabric.network t.fabric net in
  let latency = (Totem_net.Network.config network).Totem_net.Network.latency in
  Totem_net.Fault.set_delay
    (Totem_net.Fabric.fault t.fabric net)
    ~factor ~spike_prob
    ~spike_ns:(10 * latency)

let set_network_dir_loss t net ~src ~dst p =
  Totem_net.Fault.set_dir_loss (Totem_net.Fabric.fault t.fabric net) ~src ~dst p

let set_network_duplicate t net p =
  Totem_net.Fault.set_duplicate (Totem_net.Fabric.fault t.fabric net) p

let set_network_reorder t net p =
  Totem_net.Fault.set_reorder (Totem_net.Fabric.fault t.fabric net) p

let block_send t ~node ~net =
  Totem_net.Fault.block_send (Totem_net.Fabric.fault t.fabric net) node

let block_recv t ~node ~net =
  Totem_net.Fault.block_recv (Totem_net.Fabric.fault t.fabric net) node

let unblock_send t ~node ~net =
  Totem_net.Fault.unblock_send (Totem_net.Fabric.fault t.fabric net) node

let unblock_recv t ~node ~net =
  Totem_net.Fault.unblock_recv (Totem_net.Fabric.fault t.fabric net) node

let partition t ~net ~from_nodes ~to_nodes =
  let fault = Totem_net.Fabric.fault t.fabric net in
  List.iter
    (fun src ->
      List.iter (fun dst -> Totem_net.Fault.block_pair fault ~src ~dst) to_nodes)
    from_nodes

let unpartition t ~net ~from_nodes ~to_nodes =
  let fault = Totem_net.Fabric.fault t.fabric net in
  List.iter
    (fun src ->
      List.iter (fun dst -> Totem_net.Fault.unblock_pair fault ~src ~dst) to_nodes)
    from_nodes

let total_delivered_messages t =
  Array.fold_left
    (fun acc n -> acc + (Srp.Srp.stats n.srp).Srp.Srp.delivered_messages)
    0 t.nodes

let delivered_at t id = (Srp.Srp.stats t.nodes.(id).srp).Srp.Srp.delivered_messages

let delivered_bytes_at t id =
  (Srp.Srp.stats t.nodes.(id).srp).Srp.Srp.delivered_bytes
