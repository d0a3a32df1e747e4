module Srp = Totem_srp

type impl =
  | Single of Single.t
  | Active of Active.t
  | Passive of Passive.t
  | Active_passive of Active_passive.t

type t = {
  base : Layer.base;
  style : Style.t;
  impl : impl;
}

let create sim ~fabric ~node ~const ~config ~style ?telemetry () =
  (match Style.validate style ~num_nets:(Totem_net.Fabric.num_nets fabric) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Rrp.create: " ^ msg));
  let callbacks = Callbacks.create () in
  let base =
    Layer.make_base sim ~fabric ~node ~const ~config ~callbacks ?telemetry ()
  in
  let impl =
    match style with
    | Style.No_replication -> Single (Single.create base)
    | Style.Active -> Active (Active.create base)
    | Style.Passive -> Passive (Passive.create base)
    | Style.Active_passive k -> Active_passive (Active_passive.create base ~k)
  in
  { base; style; impl }

let style t = t.style
let node t = Layer.node t.base

let lower t =
  match t.impl with
  | Single s -> Single.lower s
  | Active a -> Active.lower a
  | Passive p -> Passive.lower p
  | Active_passive ap -> Active_passive.lower ap

let connect t ~deliver_data ~deliver_token ~deliver_join ~deliver_probe
    ~deliver_commit ~my_aru ~my_ring_id ~on_fault_report =
  let cb = Layer.callbacks t.base in
  cb.Callbacks.deliver_data <- deliver_data;
  cb.Callbacks.deliver_token <- deliver_token;
  cb.Callbacks.deliver_join <- deliver_join;
  cb.Callbacks.deliver_probe <- deliver_probe;
  cb.Callbacks.deliver_commit <- deliver_commit;
  cb.Callbacks.my_aru <- my_aru;
  cb.Callbacks.my_ring_id <- my_ring_id;
  cb.Callbacks.on_fault_report <- on_fault_report

let frame_received t ~net frame =
  (* Causal hop: one Packet_recv per received data-frame copy (before
     any style-specific duplicate filtering), emitted centrally so all
     four styles are covered by one site. *)
  (if Layer.tel_active t.base then
     match frame.Totem_net.Frame.payload with
     | Srp.Wire.Data p ->
       Layer.tel_emit t.base
         (Totem_engine.Telemetry.Packet_recv
            {
              node = Layer.node t.base;
              net;
              ring_id = p.Srp.Wire.ring_id;
              seq = p.Srp.Wire.seq;
              sender = frame.Totem_net.Frame.src;
            })
     | _ -> ());
  match t.impl with
  | Single s -> Single.frame_received s ~net frame
  | Active a -> Active.frame_received a ~net frame
  | Passive p -> Passive.frame_received p ~net frame
  | Active_passive ap -> Active_passive.frame_received ap ~net frame

let faulty t = Layer.faulty_snapshot t.base

let mark_faulty t ~net =
  Layer.mark_faulty t.base ~net ~evidence:(Fault_report.Token_timeouts 0)

let clear_fault t ~net = Layer.clear_fault t.base ~net

let net_state t ~net = Layer.net_state t.base ~net

let net_state_string t ~net =
  match Layer.net_state t.base ~net with
  | `Active -> "active"
  | `Condemned -> "condemned"
  | `Probation -> "probation"

let flaps t ~net = Layer.flaps t.base ~net

let fault_reports t = Layer.reports t.base

let data_sent t ~net = Layer.data_sent t.base ~net

let tokens_sent t ~net = Layer.tokens_sent t.base ~net

let as_active t = match t.impl with Active a -> Some a | _ -> None
let as_passive t = match t.impl with Passive p -> Some p | _ -> None

let as_active_passive t =
  match t.impl with Active_passive ap -> Some ap | _ -> None
