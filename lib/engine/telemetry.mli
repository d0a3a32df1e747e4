(** Typed telemetry: metrics registry plus structured trace events.

    One [Telemetry.t] serves a whole simulation. Components register
    named metrics (counters, gauges, histograms) at construction time
    and emit structured [event]s from their hot paths, guarded by
    [active] so that disabled telemetry costs a single branch per site.

    Events travel two ways: into a bounded ring (enabled with
    [set_tracing], read back with [events] / [events_seq]) and into an
    optional streaming [sink] such as [jsonl_sink]. Neither path may
    influence protocol behaviour: telemetry never draws randomness,
    never schedules events, and only reads simulation state, so figures
    are bitwise identical with tracing on or off.

    See OBSERVABILITY.md for the event taxonomy and naming scheme. *)

type token_info = { ring_id : int; seq : int; rotation : int; hops : int }
(** Snapshot of the token fields relevant to tracing. [hops] counts
    token visits since this ring formed; [rotation] full circuits. *)

type release_trigger =
  | Release_timer  (** passive buffer released by the 10 ms timeout *)
  | Release_caught_up  (** released early: missing messages arrived *)

type drop_kind = Drop_token | Drop_packet

type event =
  | Token_rx of { node : int; tok : token_info }
  | Token_tx of {
      node : int;
      tok : token_info;
      aru : int;
      rtr_len : int;
      dst : int;
    }
      (** [node] forwarded the token to ring successor [dst]; [aru] and
          [rtr_len] are the forwarded token's aru and retransmission
          request count *)
  | Token_copy_rx of { node : int; net : int; tok : token_info }
  | Token_retransmit of { node : int; tok : token_info }
  | Token_loss of { node : int; ring_id : int }
  | Token_hold of { node : int; tok : token_info; aru : int }
  | Token_release of { node : int; ring_id : int; trigger : release_trigger }
  | Msg_tx of { node : int; seq : int; bytes : int }
  | Msg_deliver of { node : int; origin : int; tid : int; bytes : int }
      (** agreed/safe delivery to the application on [node]; [tid] is
          the causal trace id ({!Causal.tid_of}) of the message *)
  | Msg_originate of { node : int; tid : int; bytes : int; safe : bool }
      (** a client message entered the SRP send path on its origin
          node — the root of the causal span tree for [tid] *)
  | Msg_defer of { node : int; tid : int; pending : int }
      (** flow control deferred [tid] (head of the pending queue) past
          this token visit; [pending] elements are waiting *)
  | Msg_ordered of {
      node : int;
      tid : int;
      ring_id : int;
      seq : int;
      frag : int;
      frags : int;
    }
      (** the origin assigned ring sequence [seq] to fragment
          [frag]/[frags] of message [tid] — the join point between
          trace ids and wire-level (ring, seq) packets *)
  | Packet_send of { node : int; net : int; ring_id : int; seq : int }
      (** the RRP layer handed data packet (ring, seq) to network
          [net]; one event per (logical send, network) pair *)
  | Packet_recv of {
      node : int;
      net : int;
      ring_id : int;
      seq : int;
      sender : int;
    }
      (** a data packet arrived at [node] on [net] (before duplicate
          filtering; emitted once per received copy, any RRP style) *)
  | Dup_drop of { node : int; kind : drop_kind; seq : int }
  | Rtr_request of { node : int; count : int; low : int; high : int }
  | Rtr_serve of { node : int; seq : int }
  | Problem_incr of { node : int; net : int; count : int }
  | Problem_decay of { node : int; net : int; count : int }
  | Problem_threshold of { node : int; net : int; count : int; threshold : int }
  | Recv_lag of { node : int; net : int; behind : int; source : string }
  | Net_fault_marked of { node : int; net : int; evidence : string }
  | Net_condemned of { node : int; net : int; flaps : int }
      (** [node] condemned [net]; [flaps] counts prior
          reinstate-then-recondemn cycles for the network (0 on first
          condemnation) *)
  | Net_probation of { node : int; net : int; attempt : int }
      (** the reinstatement backoff expired: [node] tentatively returned
          [net] to service and is counting clean token rotations;
          [attempt] is 1-based *)
  | Net_reinstated of { node : int; net : int; rotations : int }
      (** probation succeeded: [net] rejoined service at [node] after
          [rotations] consecutive clean rotations *)
  | Memb_transition of {
      node : int;
      phase : string;
      ring_id : int;
      detail : string;
    }
  | Ring_installed of { node : int; ring_id : int; members : int }
  | Frame_loss of { net : int; src : int }
  | Frame_blocked of { net : int; src : int; dst : int }
  | Buffer_drop of { node : int; net : int; bytes : int }
  | Net_status of { net : int; status : string }
  | Frame_corrupt of { net : int; src : int; kind : string }
      (** the corruption fault model mutated (byte-wire) or dropped
          (reference mode) a frame in flight; [kind] is one of
          ["flip"], ["trunc"], ["garble"] or ["drop"] *)
  | Frame_crc_reject of { node : int; net : int; src : int }
      (** the receiving NIC's CRC-32 check failed and the frame was
          discarded — observed by the RRP exactly as loss *)
  | Frame_decode_reject of { node : int; net : int; src : int; error : string }
      (** the CRC held (a collision) but total decoding or semantic
          validation rejected the frame image *)
  | Custom of { component : string; message : string }

type entry = { time : Vtime.t; event : event }

type t

val create : ?capacity:int -> Sim.t -> t
(** [create sim] makes a telemetry hub whose event ring holds
    [capacity] (default 4096) entries, overwriting the oldest.
    @raise Invalid_argument if [capacity <= 0]. *)

val sim : t -> Sim.t

val set_tracing : t -> bool -> unit
(** Turn ring capture on or off. Off by default. *)

val tracing : t -> bool

val set_sink : t -> (Vtime.t -> event -> unit) -> unit
(** Install a streaming sink; it observes every event, including when
    ring tracing is off. *)

val clear_sink : t -> unit

type subscription
(** Handle for one registered observer; see {!subscribe}. *)

val subscribe : t -> (Vtime.t -> event -> unit) -> subscription
(** Register an additional observer that sees every event, independently
    of the single {!set_sink} slot and of ring tracing. Observers fire in
    subscription order, after the sink. Like sinks, observers must be
    read-only with respect to the simulation: the chaos invariant
    monitors ([lib/chaos]) are the canonical client. *)

val unsubscribe : t -> subscription -> unit
(** Remove a {!subscribe}d observer; no-op if already removed. *)

val active : t -> bool
(** True when tracing is on, a sink is installed or a subscriber is
    registered — the guard instrumented code checks before building an
    event. *)

val emit : t -> event -> unit
(** Record [event] at the current simulation time. Callers normally
    guard with [if Telemetry.active t then ...] to avoid allocating the
    event when nobody is listening. *)

val custom : t -> component:string -> string -> unit
(** [custom t ~component msg] emits a [Custom] event (no-op when not
    [active]): the protocol layers' free-form string trace lines. *)

val customf :
  t -> component:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Printf-style [custom]; the format arguments are not evaluated when
    telemetry is inactive. *)

val node_labels : string -> int -> string
(** [node_labels prefix] maps a node to its component label
    [prefix ^ string_of_int node], e.g. ["srp3"]; the labels of nodes
    0..63 are built once, when it is applied to [prefix], so a trace
    line's label costs a lookup. *)

(** {1 Partitioned-mode buffering}

    Under the parallel simulator core ({!Exchange}) each simulated node
    owns a buffered child hub: emissions queue as (time, source, seq)
    entries instead of dispatching, and the exchange barrier drains all
    buffers into the parent in canonical merge order — the same total
    order the frame exchange uses — so the subscriber stream, sink and
    ring are bitwise-identical for any domain count. *)

val create_child : t -> source:int -> Sim.t -> t
(** [create_child parent ~source sim] is a buffered hub stamping
    entries with [sim]'s clock and merge rank [source] (the stable node
    id; the parent itself drains at rank [-1]). Metric registration
    through a child lands in the parent registry; [active] reflects the
    parent's listeners. *)

val set_buffering : t -> bool -> unit
(** Make a root hub buffer its own emissions too (coordinator-side
    events must merge canonically with node events). Children are
    always buffering.
    @raise Invalid_argument when disabling with a non-empty buffer. *)

val buffering : t -> bool
(** Whether emissions and {!defer}red thunks queue instead of running
    now. Lets a hot caller skip building a thunk it would run at once. *)

val defer : t -> (unit -> unit) -> unit
(** [defer t f] runs [f] now on a non-buffering hub; on a buffering hub
    it queues [f] as a (time, source, seq) entry sharing the emission
    sequence, so cluster-level hook callbacks fire at the barrier in
    exactly the order their triggering events were emitted. *)

val drain :
  t -> children:t array -> set_clock:(Vtime.t -> unit) -> unit
(** Barrier drain: merge the hub's own buffer and all [children]'s in
    (time, source, seq) order; dispatch events to sink/subscribers/ring
    and run deferred thunks, calling [set_clock] with each entry's
    timestamp first so observers read the emission-time clock. The
    per-hub buffers are reused arrays and the merge allocates nothing:
    a barrier with nothing buffered is a few loads. *)

val has_buffered : t -> bool
(** [true] when this hub holds undrained entries. O(1). *)

val buffered_next : t -> children:t array -> Vtime.t
(** Earliest buffered timestamp across the hub and [children]
    ([Vtime.never] when all empty) — the exchange's barrier hook uses
    it both for idle-jump bounds and to skip flushes when nothing is
    pending. O(hubs), allocation-free. *)

val events : t -> entry list
(** Ring contents, oldest first. *)

val events_seq : t -> entry Seq.t
(** Allocation-free iteration over the ring, oldest first. *)

val clear : t -> unit
(** Empty the event ring (metrics are untouched). *)

(** {1 Metrics registry}

    Metric names are dot-separated paths: [<component>.<instance>.<what>],
    e.g. [srp.3.retransmits_served] or [net.0.frames_lost]. *)

type metric =
  | Counter of Stats.Counter.t
  | Gauge of (unit -> float)
  | Histogram of Stats.Histogram.t

val counter : t -> string -> Stats.Counter.t
(** [counter t name] registers (or retrieves) the counter [name]. The
    returned counter is incremented directly — O(1), no lookup on the
    hot path. *)

val gauge : t -> string -> (unit -> float) -> unit
(** Register a gauge read lazily at export time; the closure must be
    read-only. *)

val histogram : ?buckets:float array -> t -> string -> Stats.Histogram.t
(** [histogram t name] registers (or retrieves) a histogram; default
    buckets are [default_ms_buckets]. *)

val default_ms_buckets : float array
(** 60 log-spaced bucket bounds from 0.01 ms to ~10 s (ratio 1.26), the
    same spacing the cluster latency probe uses. *)

val find_metric : t -> string -> metric option

val metrics : t -> (string * metric) list
(** All registered metrics in registration order. *)

(** {1 Exporters} *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (quotes,
    backslashes, control characters). *)

val json_of_event : Vtime.t -> event -> string
(** One JSON object (no trailing newline): [{"t_ns":..,"type":..,...}]. *)

val jsonl_sink : out_channel -> Vtime.t -> event -> unit
(** A sink that writes one JSON line per event to the channel. *)

val write_jsonl : out_channel -> t -> unit
(** Dump the current ring contents as JSON lines. *)

val metrics_json : t -> string
(** The registry as a JSON document (schema ["totem-metrics/v1"]):
    counters and gauges with values, histograms with non-empty
    per-bucket counts. *)

val pp_metrics : Format.formatter -> t -> unit
(** Text dashboard of the registry. *)

val pp_event : Format.formatter -> event -> unit
val pp_entry : Format.formatter -> entry -> unit

val component_of : event -> string
(** Component label, e.g. ["srp3"], ["rrp0"], ["net1"]. *)

val node_of_event : event -> int
(** The simulated node an event happened on: [-1] for network-level
    events not tied to a receiving NIC ([Frame_loss], [Frame_blocked],
    [Net_status], [Frame_corrupt]) and for [Custom]. The flight
    recorder ({!Recorder}) shards its per-node rings by this key; an
    [int] rather than an option, so the lookup allocates nothing. *)

val message_of : event -> string
(** Human-readable rendering of one event's payload. *)

val type_name : event -> string
(** Stable snake_case tag used in JSONL output, e.g. ["token_rx"]. *)

(** {1 Token-rotation span view}

    A flamegraph-style view over virtual time: one span per (ring,
    rotation counter), delimited by [Token_rx] events, with nested
    sub-events (retransmissions, holds/releases, losses, problem
    counters) attributed to the enclosing rotation. *)

type span = {
  sp_ring_id : int;
  sp_rotation : int;
  sp_start : Vtime.t;
  sp_end : Vtime.t;
  sp_visits : int;  (** token visits observed within the span *)
  sp_subs : entry list;  (** nested activity, oldest first *)
}

val spans_of_events : entry list -> span list
val token_spans : t -> span list
val pp_spans : Format.formatter -> span list -> unit
