(** A whole simulated testbed: M nodes, N networks, one RRP stack per
    node, assembled and started in one call.

    This is the highest-level entry point of the library; the examples
    and every benchmark build on it. *)

type node

type t

val create : Config.t -> t
(** Builds the simulator, fabric and per-node protocol stacks. Nothing
    runs yet; install hooks, then {!start}. *)

val start : t -> unit
(** Installs the initial ring (all nodes, ring id 1) on every node and
    has node 0 originate the token — the state the paper's testbed is in
    once Totem has formed its first ring. *)

val start_cold : t -> unit
(** Alternative start: every node begins in the membership protocol and
    the first ring is formed by the protocol itself. *)

(** {1 Running} *)

val sim : t -> Totem_engine.Sim.t
(** The coordinator simulator: the cluster clock, and where harness
    code (chaos schedules, samplers, burst injections) schedules. In
    classic mode ([Config.sim_domains = 0]) it is the only simulator. *)

val node_sim : t -> Totem_net.Addr.node_id -> Totem_engine.Sim.t
(** The node's partition simulator under the parallel core; aliases
    {!sim} in classic mode. Workload generators targeting one node
    schedule here so pacing ticks run inside the node's partition. *)

val exchange : t -> Totem_engine.Exchange.t option
(** The conservative-lookahead exchange driving the partitions, when
    [Config.sim_domains > 0]. *)

val events_processed : t -> int
(** Simulator work done: events across the coordinator and every node
    partition (classic mode: the single simulator's count). *)

val now : t -> Totem_engine.Vtime.t

val run_until : t -> Totem_engine.Vtime.t -> unit
(** Classic mode: [Sim.run_until]. Parallel mode: [Exchange.run_until]
    — on return every partition has processed all events [<= time],
    all cross-partition traffic is flushed, and [now t = time]. *)

val run_for : t -> Totem_engine.Vtime.t -> unit

val shutdown : t -> unit
(** Joins the parallel core's worker-domain pool, if any. Idempotent
    and safe in classic mode (a no-op); the cluster remains usable —
    the pool respawns on the next parallel [run_until]. Call when done
    with a cluster so no domains outlive it. *)

val config : t -> Config.t

val telemetry : t -> Totem_engine.Telemetry.t
(** The cluster-wide telemetry hub: structured events from every layer
    plus the metrics registry. Its event ring records nothing until
    {!Totem_engine.Telemetry.set_tracing} turns it on. *)

(** {1 Nodes} *)

val num_nodes : t -> int

val node : t -> Totem_net.Addr.node_id -> node

val srp : node -> Totem_srp.Srp.t

val rrp : node -> Totem_rrp.Rrp.t

val cpu : node -> Totem_engine.Cpu.t

val iter_nodes : t -> (node -> unit) -> unit

val crash_node : t -> Totem_net.Addr.node_id -> unit

val recover_node : t -> Totem_net.Addr.node_id -> unit
(** Reboot a crashed node; it rejoins via the membership protocol. *)

(** {1 Hooks} *)

val on_deliver :
  t -> (Totem_net.Addr.node_id -> Totem_srp.Message.t -> unit) -> unit
(** Called for every agreed delivery at every node (appended to any
    previously installed hook). *)

val submit :
  t ->
  node:Totem_net.Addr.node_id ->
  size:int ->
  ?data:Totem_srp.Message.data ->
  unit ->
  unit
(** {!Totem_srp.Srp.submit} at [node], then the {!on_submit} hooks. *)

val on_submit :
  t -> (Totem_net.Addr.node_id -> tid:int -> Totem_engine.Vtime.t -> unit) -> unit
(** Called for every message submitted through {!submit}, with its
    origin, causal tid ({!Totem_engine.Causal.tid_of}) and submission
    time. Deferred like {!on_deliver} hooks under the parallel core. *)

val on_fault_report :
  t -> (Totem_net.Addr.node_id -> Totem_rrp.Fault_report.t -> unit) -> unit

val on_ring_change :
  t ->
  (Totem_net.Addr.node_id -> ring_id:int -> members:Totem_net.Addr.node_id array -> unit) ->
  unit

val fault_reports : t -> (Totem_net.Addr.node_id * Totem_rrp.Fault_report.t) list
(** Every report issued so far, in issue order across the cluster. *)

(** {1 Fault injection (delegates to the fabric)} *)

val fabric : t -> Totem_net.Fabric.t

val fail_network : t -> Totem_net.Addr.net_id -> unit

val heal_network : t -> Totem_net.Addr.net_id -> unit
(** Clears the injected fault {e and} every node's faulty mark for the
    network (the administrator fixed it and told the nodes). *)

val set_network_loss : t -> Totem_net.Addr.net_id -> float -> unit

val set_network_corruption : t -> Totem_net.Addr.net_id -> float -> unit
(** Per-frame in-flight corruption probability on one network (see
    {!Totem_net.Fault.set_corruption_probability}). Observable as frame
    discards only when the cluster runs with [Config.wire_bytes]; in
    reference mode corrupted frames are simply dropped. *)

val set_network_burst_loss :
  t -> Totem_net.Addr.net_id -> p_enter:float -> p_exit:float -> unit
(** Gilbert–Elliott bursty loss on one network
    ({!Totem_net.Fault.set_burst_loss}); [p_enter = 0] disables. *)

val set_network_delay :
  t -> Totem_net.Addr.net_id -> factor:float -> spike_prob:float -> unit
(** Latency inflation: multiply the network's propagation latency by
    [factor] (clamped to [>= 1.0]) and add, with probability
    [spike_prob] per delivery, a spike uniform in [1, 10 x latency].
    [factor = 1.0] with [spike_prob = 0] restores nominal timing. *)

val set_network_dir_loss :
  t ->
  Totem_net.Addr.net_id ->
  src:Totem_net.Addr.node_id ->
  dst:Totem_net.Addr.node_id ->
  float ->
  unit
(** Asymmetric loss on the directed path [src -> dst]; [0] clears. *)

val set_network_duplicate : t -> Totem_net.Addr.net_id -> float -> unit
(** Per-delivery duplication probability. *)

val set_network_reorder : t -> Totem_net.Addr.net_id -> float -> unit
(** Per-delivery reordering probability — the one gray dimension that
    breaks the network's per-receiver FIFO assumption. *)

val block_send : t -> node:Totem_net.Addr.node_id -> net:Totem_net.Addr.net_id -> unit

val block_recv : t -> node:Totem_net.Addr.node_id -> net:Totem_net.Addr.net_id -> unit

val unblock_send :
  t -> node:Totem_net.Addr.node_id -> net:Totem_net.Addr.net_id -> unit
(** Repair one node's transmit path — the inverse of {!block_send},
    without clearing any other fault the way {!heal_network} does. *)

val unblock_recv :
  t -> node:Totem_net.Addr.node_id -> net:Totem_net.Addr.net_id -> unit

val partition :
  t ->
  net:Totem_net.Addr.net_id ->
  from_nodes:Totem_net.Addr.node_id list ->
  to_nodes:Totem_net.Addr.node_id list ->
  unit
(** The network cannot deliver from any of [from_nodes] to any of
    [to_nodes] (directed), Sec. 3's subset-to-subset fault. *)

val unpartition :
  t ->
  net:Totem_net.Addr.net_id ->
  from_nodes:Totem_net.Addr.node_id list ->
  to_nodes:Totem_net.Addr.node_id list ->
  unit
(** Lift exactly the pair blocks a matching {!partition} installed;
    rolling-partition campaigns alternate the two. *)

(** {1 Aggregate statistics} *)

val total_delivered_messages : t -> int
(** Sum over nodes (each message counts once per node that delivered it). *)

val delivered_at : t -> Totem_net.Addr.node_id -> int

val delivered_bytes_at : t -> Totem_net.Addr.node_id -> int
