(** Injectable network faults, mirroring the paper's fault model (Sec. 3).

    The tolerated fault types are: a node unable to send via a network, a
    node unable to receive via a network, and a network unable to deliver
    from some subset of nodes to some other subset (possibly everything —
    total network failure). Sporadic loss is modelled separately as a
    per-frame drop probability.

    A [Fault.t] holds the current fault state of one network; the
    {!Network} consults it on every frame. All mutations take effect for
    frames sent after the call. *)

type t

val create : unit -> t
(** No faults, zero loss. *)

val set_down : t -> bool -> unit
(** Total failure: nothing is delivered (frames vanish in the switch). *)

val is_down : t -> bool

val block_send : t -> Addr.node_id -> unit
(** The node's transmit path into this network is broken. *)

val unblock_send : t -> Addr.node_id -> unit

val send_blocked : t -> Addr.node_id -> bool

val block_recv : t -> Addr.node_id -> unit
(** The node's receive path from this network is broken. *)

val unblock_recv : t -> Addr.node_id -> unit

val recv_blocked : t -> Addr.node_id -> bool

val block_pair : t -> src:Addr.node_id -> dst:Addr.node_id -> unit
(** The network cannot deliver from [src] to [dst] (directed). *)

val unblock_pair : t -> src:Addr.node_id -> dst:Addr.node_id -> unit

val set_loss_probability : t -> float -> unit
(** Probability in [0,1] that any given frame delivery is dropped,
    independently per receiver. *)

val loss_probability : t -> float

val set_loss : t -> float -> unit
(** Like {!set_loss_probability}, but clamps the argument to [\[0,1\]]
    instead of raising — the forgiving variant fault campaigns use when
    ramping loss by computed increments. *)

val loss_rate : t -> float
(** The current loss probability; alias of {!loss_probability}, paired
    with {!set_loss} so campaigns can snapshot and restore loss state
    symmetrically. *)

val set_corruption_probability : t -> float -> unit
(** Probability in [0,1] that any given frame delivery is corrupted in
    flight, independently per receiver. What "corrupted" means depends
    on the payload: byte-faithful frames ({!Frame.Bytes}) get a random
    bit flip, truncation or garbage substitution and are still
    delivered — the receiving NIC's CRC/decode check discards them —
    while reference-passing payloads are dropped outright, both
    matching the paper's Sec. 3 observation that the Ethernet checksum
    turns corruption into loss.
    @raise Invalid_argument outside [0,1]. *)

val corruption_probability : t -> float

val set_corruption : t -> float -> unit
(** Clamping variant of {!set_corruption_probability}, like
    {!set_loss}. *)

(** {1 Gray-failure dimensions}

    Real redundant networks mostly fail {e gray}: bursty loss, one-way
    degradation, latency inflation, duplicated or reordered frames.
    Every setter below clamps its probabilities to [\[0,1\]] and
    notifies only on actual transitions, like the hard-fault setters.
    All random draws happen in {!Network} on the per-network simulation
    RNG — this module only holds parameters (and the Gilbert–Elliott
    chain state). *)

val set_burst_loss : t -> p_enter:float -> p_exit:float -> unit
(** Gilbert–Elliott two-state bursty loss. In the good state frames
    pass (the uniform {!set_loss_probability} still applies
    independently); in the bad state every frame is dropped. The chain
    steps once per delivery attempt: good->bad with [p_enter], bad->good
    with [p_exit], so the mean burst length is [1/p_exit] deliveries
    and the steady-state loss rate is [p_enter / (p_enter + p_exit)].
    [p_exit] is floored at 0.001 while the model is enabled so every
    burst ends; [p_enter = 0] disables the model and resets the chain
    to the good state. *)

val burst_loss : t -> float * float
(** Current [(p_enter, p_exit)]. *)

val burst_enabled : t -> bool

val in_burst : t -> bool
(** Whether the chain is currently in the bad (all-lost) state. *)

val set_in_burst : t -> bool -> unit
(** Chain-state update, for {!Network}'s coordinator-side draw. Not a
    configuration change: no notification. *)

val set_dir_loss : t -> src:Addr.node_id -> dst:Addr.node_id -> float -> unit
(** Asymmetric per-direction loss: probability that a frame on the
    directed path [src -> dst] is dropped, on top of the symmetric
    processes. [0] clears the entry (restoring the no-hash fast
    path). *)

val dir_loss_probability : t -> src:Addr.node_id -> dst:Addr.node_id -> float

val set_delay : t -> factor:float -> spike_prob:float -> spike_ns:int -> unit
(** Latency inflation: every delivery's propagation latency is
    multiplied by [factor] (clamped to [>= 1.0], so the lookahead bound
    [arrival >= send + latency] is preserved), and with probability
    [spike_prob] an extra spike delay uniform in [\[1, spike_ns\]] is
    added. [factor = 1.0] with [spike_prob = 0] is off. *)

val delay_factor : t -> float

val delay_spike : t -> float * int
(** Current [(spike_prob, spike_ns)]. *)

val spike_enabled : t -> bool
(** Whether {!delay_spike} can fire (both probability and size
    positive): the per-frame guard, so a spike-free network reads no
    pair. *)

val set_duplicate : t -> float -> unit
(** Probability that a delivered frame arrives twice (the copy lands
    immediately after the original; SRP's duplicate detection absorbs
    it). *)

val duplicate_probability : t -> float

val set_reorder : t -> float -> unit
(** Probability that a delivered frame is held back past later frames
    — the one gray dimension that deliberately breaks the per-receiver
    FIFO assumption (Sec. 5), exercising SRP's retransmission path. *)

val reorder_probability : t -> float

val delivers : t -> src:Addr.node_id -> dst:Addr.node_id -> bool
(** Whether the deterministic fault state permits delivery on the path
    [src -> dst] (loss probability not included). *)

val heal : t -> unit
(** Clears every fault dimension: down, blocks, loss, corruption, and
    the whole gray state (burst-loss parameters {e and} chain state,
    per-direction loss, delay inflation, duplication, reordering). A
    healed fault is observationally equal to a fresh one. *)

val set_notify : t -> (string -> unit) -> unit
(** Install an observer called with a short status string whenever the
    fault state actually changes: [set_down], [set_loss_probability],
    [set_corruption_probability], every [block_send] / [block_recv] /
    [block_pair] and their unblock counterparts, every gray-dimension
    setter, and [heal]. Redundant
    mutations (blocking an already-blocked path, setting an unchanged
    probability) do not notify, so telemetry sees one [Net_status]
    event per transition. The observer must not mutate fault state. *)
