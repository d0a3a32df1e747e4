(** Shared state and plumbing for every replication style.

    Holds what Figs. 2 and 4 both assume: the [faulty] array (a node
    stops {e sending} on a network it marked faulty but still accepts
    receptions from it, Sec. 3), per-network send counters, fault-report
    emission, and frame construction. Each style builds on one [base]. *)

type base

val make_base :
  Totem_engine.Sim.t ->
  fabric:Totem_net.Fabric.t ->
  node:Totem_net.Addr.node_id ->
  const:Totem_srp.Const.t ->
  config:Rrp_config.t ->
  callbacks:Callbacks.t ->
  ?telemetry:Totem_engine.Telemetry.t ->
  unit ->
  base

val sim : base -> Totem_engine.Sim.t
val node : base -> Totem_net.Addr.node_id
val config : base -> Rrp_config.t
val callbacks : base -> Callbacks.t
val num_nets : base -> int

val telemetry : base -> Totem_engine.Telemetry.t option
(** The telemetry hub the base was built with, if any. *)

val tel_active : base -> bool
(** Hot-path guard: true when structured events have a listener. *)

val tel_emit : base -> Totem_engine.Telemetry.event -> unit

val tok_info : Totem_srp.Token.t -> Totem_engine.Telemetry.token_info
(** Snapshot the traced token fields. *)

val is_faulty : base -> net:Totem_net.Addr.net_id -> bool
val faulty_snapshot : base -> bool array
val non_faulty_count : base -> int

val mark_faulty :
  base -> net:Totem_net.Addr.net_id -> evidence:Fault_report.evidence -> unit
(** Marks the network faulty and issues a fault report — unless it is
    already marked, or it is the last non-faulty network (marking every
    network would silence the node entirely; the last network is kept so
    the system "remains operational as long as a single network is
    operational"). *)

val clear_fault : base -> net:Totem_net.Addr.net_id -> unit
(** Administrative repair: resume sending on the network. Also wipes the
    reinstatement history (flaps, probation, pending probes) — the
    operator asserts the network is fixed, so flap damping restarts. *)

(** {1 Condemned-network reinstatement}

    With [config.reinstate] a condemned network is not written off for
    good: after an exponential backoff ([reinstate_backoff], doubling
    per flap up to [reinstate_backoff_max]) the node puts it on
    {e probation} — it resumes sending on the network and counts clean
    token rotations. After [reinstate_clean_rotations] consecutive
    clean ones it is reinstated; any new fault report meanwhile
    re-condemns it immediately (a {e flap}). A network that flaps
    [reinstate_flap_limit] times is condemned permanently, so an
    oscillating (gray) network converges. With [reinstate = false]
    (default) none of this machinery runs and behaviour is identical to
    the paper's protocol. *)

val set_probation_hooks :
  base -> net_clean:(int -> bool) -> on_probation_start:(int -> unit) -> unit
(** Style-specific probation plumbing. [net_clean net] is consulted once
    per token rotation for each network on probation: true counts a
    clean rotation, false resets the streak. [on_probation_start net]
    fires when probation begins, so the style can reset the fault
    evidence that condemned the network (problem counters, reception
    counts) instead of instantly re-condemning it. *)

val note_rotation : base -> unit
(** Styles call this once per token delivered to the SRP (= once per
    ring rotation at this node); advances every probation streak. *)

val note_recovery_traffic : base -> net:Totem_net.Addr.net_id -> unit
(** Styles call this when a data or token frame arrives on a network
    this node has condemned: some peer is probing it, so join the probe
    (probation windows must overlap across the ring for the per-node
    clean-rotation verdicts to pass). No-op unless the network is
    condemned, its flap limit is unreached, and at least the base
    [reinstate_backoff] has elapsed since this node condemned it — the
    quarantine that keeps frames already in flight at condemnation time
    from instantly restarting the probe. Membership traffic (joins,
    merge probes, commits) must NOT feed this: it is sent on every
    network regardless of fault state, so it carries no evidence of
    recovery. *)

val net_state :
  base -> net:Totem_net.Addr.net_id -> [ `Active | `Condemned | `Probation ]

val flaps : base -> net:Totem_net.Addr.net_id -> int
(** Completed reinstate-then-recondemn cycles for the network. *)

val reports : base -> Fault_report.t list
(** All reports issued by this node, oldest first. *)

val data_frame : base -> Totem_srp.Wire.packet -> Totem_net.Frame.t

val send_data_frame_on :
  base -> net:Totem_net.Addr.net_id -> Totem_net.Frame.t -> unit
(** Frame-level send: multi-network styles build one frame value with
    {!data_frame}/{!token_frame} and pass the {e same} value to every
    network — the fabric's wire-encoder memo keys on frame identity, so
    this is what makes active replication serialize once per logical
    frame. *)

val token_frame : base -> Totem_srp.Token.t -> Totem_net.Frame.t

val send_token_frame_on :
  base ->
  net:Totem_net.Addr.net_id ->
  dst:Totem_net.Addr.node_id ->
  Totem_net.Frame.t ->
  unit

val send_data_on : base -> net:Totem_net.Addr.net_id -> Totem_srp.Wire.packet -> unit

val send_token_on :
  base ->
  net:Totem_net.Addr.net_id ->
  dst:Totem_net.Addr.node_id ->
  Totem_srp.Token.t ->
  unit

val send_join_on : base -> net:Totem_net.Addr.net_id -> Totem_srp.Wire.join -> unit

val send_join_all : base -> Totem_srp.Wire.join -> unit
(** Joins go out on {e every} network, faulty-marked or not: membership
    is the last resort and must survive wrong fault marking. *)

val send_probe_on : base -> net:Totem_net.Addr.net_id -> Totem_srp.Wire.probe -> unit

val send_probe_all : base -> Totem_srp.Wire.probe -> unit
(** Merge-detect probes follow the same every-network rule as Joins. *)

val send_commit_on :
  base -> net:Totem_net.Addr.net_id -> dst:Totem_net.Addr.node_id ->
  Totem_srp.Wire.commit -> unit

val send_commit_all :
  base -> dst:Totem_net.Addr.node_id -> Totem_srp.Wire.commit -> unit
(** The commit token is membership traffic: unicast on every network. *)

val data_sent : base -> net:Totem_net.Addr.net_id -> int
val tokens_sent : base -> net:Totem_net.Addr.net_id -> int

val next_non_faulty : base -> after:int -> int option
(** Round-robin helper: the first non-faulty network after index
    [after] (wrapping); [None] if every network is marked faulty. *)

val every : base -> Totem_engine.Vtime.t -> (unit -> unit) -> unit
(** Runs [f] periodically forever (monitor decay processes). *)

val emit : base -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** String trace line ({!Totem_engine.Telemetry.customf}); no-op without
    an active telemetry hub. *)
