(** The Totem Single Ring Protocol engine — one instance per node.

    Implements the protocol of Sec. 2: token-passing broadcast with
    global sequence numbers, in-order (agreed) delivery, retransmission
    requests carried on the token, token retransmission with duplicate
    suppression, token-based flow control, message packing and
    fragmentation, stability-based garbage collection, and a membership
    protocol driven by token-loss detection.

    The engine is transport-agnostic: it sends through a {!Lower.t} and
    is fed by [recv_data] / [token_arrived] / [recv_join]. The Totem RRP
    is exactly a different implementation of that lower interface, so
    this one engine runs unreplicated and replicated alike.

    CPU realism: every token visit and every received message charges
    the node's {!Totem_engine.Cpu.t}; the sends triggered by a token
    visit happen when the CPU has done the corresponding work. This is
    what reproduces the paper's processing-bound throughput ceiling. *)

type callbacks = {
  on_deliver : Message.t -> unit;
      (** agreed delivery: same total order at every node *)
  on_ring_change : ring_id:int -> members:Totem_net.Addr.node_id array -> unit;
      (** a new ring was installed (start-up, node crash, heal) *)
}

(** Counters exposed for experiments and tests. *)
type stats = {
  mutable delivered_messages : int;
  mutable delivered_bytes : int;
  mutable sent_messages : int;
  mutable sent_packets : int;
  mutable duplicate_packets : int;
  mutable duplicate_tokens : int;
  mutable retransmissions_served : int;
  mutable retransmissions_requested : int;
  mutable token_visits : int;
  mutable token_retransmits : int;
  mutable gather_entries : int;
  mutable ring_changes : int;
}

type t

val create :
  Totem_engine.Sim.t ->
  cpu:Totem_engine.Cpu.t ->
  const:Const.t ->
  me:Totem_net.Addr.node_id ->
  lower:Lower.t ->
  ?telemetry:Totem_engine.Telemetry.t ->
  callbacks ->
  t

val me : t -> Totem_net.Addr.node_id

(** {1 Application side} *)

val submit : t -> size:int -> ?safe:bool -> ?data:Message.data -> unit -> unit
(** Queues a message for ordered broadcast. With [~safe:true] the
    message gets Totem's {e safe} delivery guarantee: every node holds
    it back until the token's aru shows that all ring members have
    received it (so no delivery can happen at only a subset that then
    partitions away). The queue is unbounded; use
    {!send_queue_length} for application-level backpressure. *)

val last_app_seq : t -> int
(** The [app_seq] of the message this node originated most recently
    (0 before the first). Right after {!submit} it names that message,
    so its causal tid is [Causal.tid_of ~origin:(me t) ~app_seq]. *)

val set_supplier : t -> (unit -> (int * Message.data) option) -> unit
(** Installs a pull source consulted on each token visit to top the
    send queue up to the flow-control allowance — how the benchmarks
    express "send as many messages as flow control permits" (Sec. 8). *)

val send_queue_length : t -> int

(** {1 Control} *)

val install_ring :
  t -> ring_id:int -> members:Totem_net.Addr.node_id array -> unit
(** Adopts a ring directly (cluster start-up). Arms the token-loss
    detector. *)

val bootstrap_token : t -> unit
(** Fabricates and processes the new ring's initial token; call on
    exactly one member after {!install_ring}. *)

val start_gathering : t -> unit
(** Begins the membership protocol from cold (a node with no ring). *)

val crash : t -> unit
(** Silences the node: every input is dropped, timers stop. *)

val is_crashed : t -> bool

val recover : t -> unit
(** Reboot a crashed node: volatile protocol state is discarded and the
    node re-enters the membership protocol to join whatever ring the
    survivors formed. @raise Invalid_argument if not crashed. *)

(** {1 Inputs (called by the replication layer)} *)

val recv_data : t -> Wire.packet -> unit

val token_arrived : t -> Token.t -> unit
(** A token the replication layer decided to pass up (Figs. 2 and 4:
    "deliver t to Totem SRP"). *)

val recv_join : t -> Wire.join -> unit

val recv_probe : t -> Wire.probe -> unit
(** A merge-detect probe (Corosync's memb_merge_detect): a probe naming
    a different ring triggers the membership protocol so that rings
    formed during a partition merge once the networks heal. *)

val recv_commit : t -> Wire.commit -> unit
(** The membership commit token. Round 1 collects each proposed
    member's old-ring position; round 2 distributes the collected list
    and starts the recovery exchange, after which the new ring is
    installed. The recovery exchange guarantees that all members coming
    from one old ring deliver the same prefix of it — the extended
    virtual synchrony property the replicated-state-machine examples
    rely on. *)

(** {1 Introspection} *)

val safe_horizon : t -> int
(** Highest sequence number proven (by two consecutive token arus) to be
    held by every ring member; safe messages at or below it are
    deliverable. *)

val my_aru : t -> int
(** All-received-up-to — the replication layer's
    [anyMessagesMissing()] is [my_aru t < seq] for the buffered token. *)

val highest_seen : t -> int

val current_ring_id : t -> int

val members : t -> Totem_net.Addr.node_id array

val is_operational : t -> bool
(** False while the membership protocol is running. *)

val stats : t -> stats

val rotation_histogram : t -> Totem_engine.Stats.Histogram.t
(** Distribution of full token-rotation times in milliseconds, observed
    at the ring leader (one sample per completed circuit). Always
    collected, independent of tracing. *)

val allowance_histogram : t -> Totem_engine.Stats.Histogram.t
(** Distribution of the flow-control allowance (packets permitted per
    token visit); buckets are packet counts, not milliseconds. *)
