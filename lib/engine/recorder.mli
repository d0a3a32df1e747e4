(** Flight recorder: bounded per-node rings of recent telemetry events.

    A recorder is one {!Telemetry.subscribe} observer that shards every
    event into a fixed-capacity ring for its owning node
    ({!Telemetry.node_of_event}), or into a separate fabric ring for
    node-less network events. Each event costs two array stores into
    preallocated parallel rings (times and events): recording allocates
    nothing, and {!Telemetry.entry} records are built only when history
    is read. Like every subscriber it is read-only, keeping
    the simulation bitwise identical (OBSERVABILITY.md invariant 2) —
    and because it observes the root hub, partitioned runs
    ([sim_domains >= 1]) feed it the canonical (time, node, seq) drain
    order, so dumps are identical for every domain count.

    The chaos runner attaches one per campaign, keeps it detached in
    the run's result and embeds {!dump_jsonl} in [.chaos.json]
    counterexamples ([totem-chaos/v3]). *)

type t

val attach : ?capacity:int -> nodes:int -> Telemetry.t -> t
(** [attach ~nodes tel] subscribes a recorder with one ring of
    [capacity] (default 64) entries per node plus the fabric ring.
    @raise Invalid_argument if [capacity <= 0] or [nodes <= 0]. *)

val detach : t -> unit
(** Unsubscribe from the hub; recorded history stays readable. A
    detached recorder no longer references the hub, so holding it does
    not keep the simulation alive. *)

val record : t -> Vtime.t -> Telemetry.event -> unit
(** Feed one event directly (what the subscription does internally). *)

val capacity : t -> int
val num_nodes : t -> int

val node_history : t -> int -> Telemetry.entry list
(** Retained events for one node, oldest first.
    @raise Invalid_argument on an out-of-range node. *)

val fabric_history : t -> Telemetry.entry list
(** Retained node-less network events, oldest first. *)

val dump : t -> (int * Telemetry.entry list) list
(** Every non-empty ring as [(node, entries)] in node order, the fabric
    ring last under key [-1]. *)

val dump_jsonl : t -> (int * string list) list
(** {!dump} with each entry rendered by {!Telemetry.json_of_event}. *)

val clear : t -> unit
