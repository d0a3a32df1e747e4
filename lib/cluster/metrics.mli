(** Measurement: throughput (the paper's Figures 6–9 metrics) and
    delivery latency. *)

type throughput = {
  msgs_per_sec : float;
      (** total system send rate, as in Figs. 6–7: messages ordered and
          delivered per second (measured as deliveries seen by a node,
          which each message reaches exactly once) *)
  kbytes_per_sec : float;  (** utilised payload bandwidth, Figs. 8–9 *)
  duration : Totem_engine.Vtime.t;
  messages : int;
}

val measure_throughput :
  Cluster.t ->
  warmup:Totem_engine.Vtime.t ->
  duration:Totem_engine.Vtime.t ->
  throughput
(** Runs the cluster for [warmup] (discarded), then [duration], and
    averages the per-node delivery deltas. The workload must already be
    installed (e.g. {!Workload.saturate}). *)

val events_processed : Cluster.t -> int
(** Total simulator events popped so far — the denominator for
    events/sec, the simulator's own speed metric (as opposed to the
    protocol's). *)

type latency_probe

val install_latency : Cluster.t -> latency_probe
(** Records submission-to-delivery latency of every message submitted
    through {!Cluster.submit} (as {!Workload}'s generators do) from now
    on, at every node that delivers it. The submission time is looked up
    by causal tid, so remote deliveries count under byte-wire too, where
    the payload arrives as [Message.Blob].

    Each submission is held until every member of the ring it is
    delivered in has delivered it (see {!latency_pending}). Entries
    outlive that only for messages a membership change cut short: a
    message lost with its crashed origin's queue, or one that a member
    crashed or was partitioned away before delivering. Those are bounded
    by the traffic in flight at each ring change, not by the length of
    the run. *)

val probe_of_causal : Totem_engine.Causal.t -> latency_probe
(** A probe built from a causal trace's per-message latency records
    ({!Totem_engine.Causal.latencies}) — the same quantile and bucket
    machinery as {!install_latency}, fed offline. *)

val observe_latency :
  latency_probe -> sent:Totem_engine.Vtime.t -> delivered:Totem_engine.Vtime.t -> unit
(** Feed one latency observation directly. *)

val latency_count : latency_probe -> int
(** Observations recorded so far. *)

val latency_pending : latency_probe -> int
(** Submissions still awaiting a delivery at some ring member; [0] for
    a probe built by {!probe_of_causal}. *)

val latency_summary : latency_probe -> Totem_engine.Stats.Summary.t option
(** Latencies in milliseconds; [None] for an empty probe (n = 0), so
    emitters write an explicit null rather than nan. *)

val latency_quantile : latency_probe -> float -> float option
(** Upper bound (log-spaced bucket edge) on the given latency quantile,
    in milliseconds — e.g. [latency_quantile probe 0.99]. [None] for an
    empty probe (n = 0); [Some infinity] marks overflow-bucket values. *)

val latency_histogram_dump : latency_probe -> (float * int) array
(** Per-bucket latency counts, [(upper_bound_ms, count)] including the
    trailing overflow bucket ([infinity]); the full distribution, so
    baselines in different BENCH_*.json files can be compared bucket by
    bucket rather than only through quantile upper bounds. *)

(** {1 Per-point protocol telemetry} *)

type fault_sampler

val install_fault_sampler :
  Cluster.t -> interval:Totem_engine.Vtime.t -> fault_sampler
(** Samples, every [interval] of virtual time, the maximum per-network
    problemCounter across all nodes (active replication; other styles
    record zeros). Read-only: never perturbs protocol state or RNG
    draws, so results are identical with or without tracing. *)

val fault_trajectory : fault_sampler -> (Totem_engine.Vtime.t * int array) list
(** Samples oldest first: (time, worst problemCounter per network). *)

type point_telemetry = {
  pt_rotation_count : int;  (** completed token rotations observed *)
  pt_rotation_p50 : float;  (** rotation-time quantiles, milliseconds *)
  pt_rotation_p90 : float;
  pt_rotation_p99 : float;
  pt_rotation_buckets : (float * int) array;
      (** merged rotation-time histogram, as {!latency_histogram_dump} *)
  pt_retransmits_served : int;
  pt_retransmits_requested : int;
  pt_token_retransmits : int;
  pt_duplicate_packets : int;
  pt_duplicate_tokens : int;
  pt_trajectory : (float * int array) list;
      (** problemCounter trajectory: (time in ms, worst count per net) *)
}

val collect_point_telemetry : ?sampler:fault_sampler -> Cluster.t -> point_telemetry
(** Aggregate the protocol-level telemetry of a finished run: rotation
    histograms merged across nodes, retransmission/duplicate counters
    summed, and the fault trajectory from [sampler] if one was
    installed. *)

val network_utilisation : Cluster.t -> net:Totem_net.Addr.net_id -> float
(** Bytes-on-wire (including Ethernet overheads) over elapsed time, as a
    fraction of the network's bandwidth. *)
