open Totem_engine
module Srp = Totem_srp

(* Per-network reinstatement state (Sec. "probation" extension; only
   consulted when [config.reinstate]). The three observable states are
   encoded across [faulty] and [probation]:
     Active     = not faulty && not probation
     Condemned  = faulty
     Probation  = not faulty && probation *)
type pstate = {
  mutable probation : bool;
  mutable flaps : int;  (* reinstate-then-recondemn cycles *)
  mutable attempts : int;  (* probation attempts, 1-based in events *)
  mutable clean : int;  (* consecutive clean rotations so far *)
  mutable epoch : int;  (* invalidates pending probe timers *)
  mutable condemned_at : Vtime.t;  (* quarantine floor for probe joining *)
}

type base = {
  sim : Sim.t;
  fabric : Totem_net.Fabric.t;
  node : Totem_net.Addr.node_id;
  const : Srp.Const.t;
  config : Rrp_config.t;
  callbacks : Callbacks.t;
  telemetry : Telemetry.t option;
  faulty : bool array;
  pstates : pstate array;
  mutable net_clean : int -> bool;  (* style hook: net clean this rotation? *)
  mutable on_probation_start : int -> unit;  (* style hook: reset evidence *)
  data_sent : int array;
  tokens_sent : int array;
  mutable reports : Fault_report.t list;
}

let make_base sim ~fabric ~node ~const ~config ~callbacks ?telemetry () =
  let n = Totem_net.Fabric.num_nets fabric in
  {
    sim;
    fabric;
    node;
    const;
    config;
    callbacks;
    telemetry;
    faulty = Array.make n false;
    pstates =
      Array.init n (fun _ ->
          {
            probation = false;
            flaps = 0;
            attempts = 0;
            clean = 0;
            epoch = 0;
            condemned_at = Vtime.zero;
          });
    net_clean = (fun _ -> true);
    on_probation_start = (fun _ -> ());
    data_sent = Array.make n 0;
    tokens_sent = Array.make n 0;
    reports = [];
  }

let sim b = b.sim
let node b = b.node
let config b = b.config
let callbacks b = b.callbacks
let num_nets b = Array.length b.faulty

let is_faulty b ~net = b.faulty.(net)
let faulty_snapshot b = Array.copy b.faulty

let non_faulty_count b =
  Array.fold_left (fun acc f -> if f then acc else acc + 1) 0 b.faulty

(* String trace lines; inactive, nothing is formatted. *)
let component = Telemetry.node_labels "rrp"

let emit b fmt =
  match b.telemetry with
  | Some tl when Telemetry.active tl ->
    Telemetry.customf tl ~component:(component b.node) fmt
  | _ -> Format.ikfprintf ignore Format.str_formatter fmt

let telemetry b = b.telemetry

let[@inline] tel_active b =
  match b.telemetry with Some tl -> Telemetry.active tl | None -> false

let tel_emit b ev =
  match b.telemetry with Some tl -> Telemetry.emit tl ev | None -> ()

let tok_info (tok : Srp.Token.t) =
  {
    Telemetry.ring_id = tok.ring_id;
    seq = tok.seq;
    rotation = tok.rotation;
    hops = tok.hops;
  }

let evidence_string = function
  | Fault_report.Token_timeouts n -> Printf.sprintf "%d token timeouts" n
  | Fault_report.Reception_lag { source = Token_traffic; behind } ->
    Printf.sprintf "token traffic lagging by %d" behind
  | Fault_report.Reception_lag { source = Message_traffic n; behind } ->
    Printf.sprintf "messages from N%d lagging by %d" n behind

(* Exponential flap damping: base * 2^flaps, capped. *)
let probe_delay b ps =
  let shift = Stdlib.min ps.flaps 16 in
  Vtime.min
    (b.config.Rrp_config.reinstate_backoff * (1 lsl shift))
    b.config.Rrp_config.reinstate_backoff_max

let set_probation_hooks b ~net_clean ~on_probation_start =
  b.net_clean <- net_clean;
  b.on_probation_start <- on_probation_start

let net_state b ~net =
  if b.faulty.(net) then `Condemned
  else if b.pstates.(net).probation then `Probation
  else `Active

let flaps b ~net = b.pstates.(net).flaps

let begin_probation b ~net ~epoch =
  let ps = b.pstates.(net) in
  (* The probe is stale if the fault was administratively cleared (or
     re-marked, bumping the epoch) while the timer was pending. *)
  if b.faulty.(net) && ps.epoch = epoch && b.config.Rrp_config.reinstate then begin
    b.faulty.(net) <- false;
    ps.probation <- true;
    ps.clean <- 0;
    ps.attempts <- ps.attempts + 1;
    if tel_active b then
      tel_emit b
        (Telemetry.Net_probation { node = b.node; net; attempt = ps.attempts });
    emit b "probation on %a (attempt %d)" Totem_net.Addr.pp_net net ps.attempts;
    b.on_probation_start net
  end

let mark_faulty b ~net ~evidence =
  if (not b.faulty.(net)) && non_faulty_count b > 1 then begin
    let ps = b.pstates.(net) in
    ps.probation <- false;
    ps.epoch <- ps.epoch + 1;
    (* Any re-condemnation after a probation attempt — whether the
       probe was still running or had already reinstated the net — is
       one flap; only an administrative [clear_fault] resets the
       count. This is what makes an oscillating network converge. *)
    if ps.attempts > 0 then ps.flaps <- ps.flaps + 1;
    b.faulty.(net) <- true;
    ps.condemned_at <- Sim.now b.sim;
    let report =
      { Fault_report.time = Sim.now b.sim; reporter = b.node; net; evidence }
    in
    b.reports <- b.reports @ [ report ];
    if tel_active b then
      tel_emit b
        (Telemetry.Net_fault_marked
           { node = b.node; net; evidence = evidence_string evidence });
    emit b "fault report: %a" Fault_report.pp report;
    if b.config.Rrp_config.reinstate then begin
      if tel_active b then
        tel_emit b
          (Telemetry.Net_condemned { node = b.node; net; flaps = ps.flaps });
      (* Flap damping: past the limit the network is condemned for good,
         so an oscillating network converges instead of flapping. *)
      if ps.flaps < b.config.Rrp_config.reinstate_flap_limit then begin
        let epoch = ps.epoch in
        ignore
          (Sim.schedule b.sim ~delay:(probe_delay b ps) (fun () ->
               begin_probation b ~net ~epoch))
      end
    end;
    b.callbacks.Callbacks.on_fault_report report
  end

let clear_fault b ~net =
  let ps = b.pstates.(net) in
  if b.faulty.(net) || ps.probation then begin
    b.faulty.(net) <- false;
    (* Administrative repair wipes the flap history: the operator
       asserts the network is fixed, so damping starts afresh. *)
    ps.probation <- false;
    ps.flaps <- 0;
    ps.attempts <- 0;
    ps.clean <- 0;
    ps.epoch <- ps.epoch + 1;
    emit b "fault cleared on %a" Totem_net.Addr.pp_net net
  end

(* Called by the style once per token delivered to the SRP — the token
   visits each node once per ring rotation, so per-node delivery count
   IS the rotation count. *)
let note_rotation b =
  if b.config.Rrp_config.reinstate then
    for net = 0 to Array.length b.pstates - 1 do
      let ps = b.pstates.(net) in
      if ps.probation then
        if b.net_clean net then begin
          ps.clean <- ps.clean + 1;
          if ps.clean >= b.config.Rrp_config.reinstate_clean_rotations
          then begin
            ps.probation <- false;
            if tel_active b then
              tel_emit b
                (Telemetry.Net_reinstated
                   { node = b.node; net; rotations = ps.clean });
            emit b "%a reinstated after %d clean rotations"
              Totem_net.Addr.pp_net net ps.clean
          end
        end
        else ps.clean <- 0
    done

(* A condemned network that carries protocol traffic again is evidence
   that some peer has put it on probation and resumed sending on it.
   Join the probe instead of waiting out our own backoff: probation is a
   per-node decision, but its clean-rotation verdict depends on peers
   actually sending on the net, so probe windows across the ring must
   overlap — a lone prober would be re-condemned by reception lag
   before anyone else's window opened, and a healthy net could never be
   reinstated. The base backoff still quarantines (frames in flight
   when the net was condemned don't restart the probe), and flap
   damping is preserved: the first prober of each cycle sits out its
   full doubled backoff before anyone sends on the net again. *)
let note_recovery_traffic b ~net =
  if b.config.Rrp_config.reinstate && b.faulty.(net) then begin
    let ps = b.pstates.(net) in
    if
      ps.flaps < b.config.Rrp_config.reinstate_flap_limit
      && Sim.now b.sim - ps.condemned_at
         >= b.config.Rrp_config.reinstate_backoff
    then begin_probation b ~net ~epoch:ps.epoch
  end

let reports b = b.reports

(* Frame construction is split from frame sending so the multi-network
   paths (active replication's per-send loops, the *_all membership
   fan-outs) build ONE physical frame value and pass it to every
   network. The fabric's wire-encoder memo keys on frame identity, so
   in wire mode this is what makes N-network fan-out serialize once per
   logical frame instead of once per copy. *)

let data_frame b p = Srp.Wire.data_frame b.const ~src:b.node p

let send_data_frame_on b ~net frame =
  b.data_sent.(net) <- b.data_sent.(net) + 1;
  (* Causal hop: one Packet_send per (logical send, network), whatever
     replication style drove the fan-out — this is the single choke
     point every data frame passes on its way to the fabric. *)
  (if tel_active b then
     match frame.Totem_net.Frame.payload with
     | Srp.Wire.Data p ->
       tel_emit b
         (Telemetry.Packet_send
            { node = b.node; net; ring_id = p.Srp.Wire.ring_id; seq = p.seq })
     | _ -> ());
  Totem_net.Fabric.broadcast b.fabric ~net frame

let send_data_on b ~net p = send_data_frame_on b ~net (data_frame b p)

let token_frame b tok = Srp.Wire.token_frame b.const ~src:b.node tok

let send_token_frame_on b ~net ~dst frame =
  b.tokens_sent.(net) <- b.tokens_sent.(net) + 1;
  Totem_net.Fabric.unicast b.fabric ~net ~dst frame

let send_token_on b ~net ~dst tok =
  send_token_frame_on b ~net ~dst (token_frame b tok)

let send_join_on b ~net j =
  Totem_net.Fabric.broadcast b.fabric ~net
    (Srp.Wire.join_frame b.const ~src:b.node j)

let send_join_all b j =
  let frame = Srp.Wire.join_frame b.const ~src:b.node j in
  for net = 0 to num_nets b - 1 do
    Totem_net.Fabric.broadcast b.fabric ~net frame
  done

let send_probe_on b ~net p =
  Totem_net.Fabric.broadcast b.fabric ~net
    (Srp.Wire.probe_frame b.const ~src:b.node p)

let send_probe_all b p =
  let frame = Srp.Wire.probe_frame b.const ~src:b.node p in
  for net = 0 to num_nets b - 1 do
    Totem_net.Fabric.broadcast b.fabric ~net frame
  done

let send_commit_on b ~net ~dst cm =
  Totem_net.Fabric.unicast b.fabric ~net ~dst
    (Srp.Wire.commit_frame b.const ~src:b.node cm)

let send_commit_all b ~dst cm =
  let frame = Srp.Wire.commit_frame b.const ~src:b.node cm in
  for net = 0 to num_nets b - 1 do
    Totem_net.Fabric.unicast b.fabric ~net ~dst frame
  done

let data_sent b ~net = b.data_sent.(net)
let tokens_sent b ~net = b.tokens_sent.(net)

let next_non_faulty b ~after =
  let n = num_nets b in
  let rec probe i remaining =
    if remaining = 0 then None
    else if not b.faulty.(i) then Some i
    else probe ((i + 1) mod n) (remaining - 1)
  in
  probe ((after + 1) mod n) n

let every b interval f =
  let rec tick () =
    f ();
    ignore (Sim.schedule b.sim ~delay:interval tick)
  in
  ignore (Sim.schedule b.sim ~delay:interval tick)
