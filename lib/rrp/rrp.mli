(** The Totem Redundant Ring Protocol layer — public entry point.

    One [Rrp.t] per node sits between that node's Totem SRP engine and
    the redundant-network fabric, implementing the chosen replication
    style (Sec. 4). Construction order: create the layer, build the SRP
    over {!lower}, then {!connect} the SRP's entry points back in.

    {[
      let rrp = Rrp.create sim ~fabric ~node ~const ~config ~style () in
      let srp = Srp.create sim ~cpu ~const ~me:node ~lower:(Rrp.lower rrp) cbs in
      Rrp.connect rrp
        ~deliver_data:(Srp.recv_data srp)
        ~deliver_token:(Srp.token_arrived srp)
        ~deliver_join:(Srp.recv_join srp)
        ~my_aru:(fun () -> Srp.my_aru srp)
        ~on_fault_report:handle_report;
      Fabric.attach_node fabric ~node ... (Rrp.frame_received rrp)
    ]} *)

type t

val create :
  Totem_engine.Sim.t ->
  fabric:Totem_net.Fabric.t ->
  node:Totem_net.Addr.node_id ->
  const:Totem_srp.Const.t ->
  config:Rrp_config.t ->
  style:Style.t ->
  ?telemetry:Totem_engine.Telemetry.t ->
  unit ->
  t
(** @raise Invalid_argument if the style does not fit the fabric's
    network count ({!Style.validate}). *)

val style : t -> Style.t

val node : t -> Totem_net.Addr.node_id

val lower : t -> Totem_srp.Lower.t
(** What the SRP sends through. *)

val connect :
  t ->
  deliver_data:(Totem_srp.Wire.packet -> unit) ->
  deliver_token:(Totem_srp.Token.t -> unit) ->
  deliver_join:(Totem_srp.Wire.join -> unit) ->
  deliver_probe:(Totem_srp.Wire.probe -> unit) ->
  deliver_commit:(Totem_srp.Wire.commit -> unit) ->
  my_aru:(unit -> int) ->
  my_ring_id:(unit -> int) ->
  on_fault_report:(Fault_report.t -> unit) ->
  unit

val frame_received : t -> net:Totem_net.Addr.net_id -> Totem_net.Frame.t -> unit
(** Install as the node's fabric handler. *)

(** {1 Fault state} *)

val faulty : t -> bool array
(** Snapshot of the per-network fault marks. *)

val mark_faulty : t -> net:Totem_net.Addr.net_id -> unit
(** Administrative override, and handy in tests. *)

val clear_fault : t -> net:Totem_net.Addr.net_id -> unit
(** Administrative repair after the network is fixed: the node resumes
    sending on it, and the reinstatement flap history is wiped. *)

val net_state :
  t -> net:Totem_net.Addr.net_id -> [ `Active | `Condemned | `Probation ]
(** The reinstatement state machine's view of the network (see
    {!Layer.net_state}); [`Probation] only occurs with
    [Rrp_config.reinstate]. *)

val net_state_string : t -> net:Totem_net.Addr.net_id -> string
(** ["active"], ["condemned"] or ["probation"] — for explorer state
    fingerprints and test output. *)

val flaps : t -> net:Totem_net.Addr.net_id -> int
(** Completed reinstate-then-recondemn cycles for the network. *)

val fault_reports : t -> Fault_report.t list

(** {1 Per-network send counters (round-robin fairness, tests)} *)

val data_sent : t -> net:Totem_net.Addr.net_id -> int

val tokens_sent : t -> net:Totem_net.Addr.net_id -> int

(** {1 Style internals, for tests and ablations} *)

val as_active : t -> Active.t option

val as_passive : t -> Passive.t option

val as_active_passive : t -> Active_passive.t option
