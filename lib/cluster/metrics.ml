open Totem_engine
module Srp = Totem_srp

type throughput = {
  msgs_per_sec : float;
  kbytes_per_sec : float;
  duration : Vtime.t;
  messages : int;
}

let snapshot t =
  let n = Cluster.num_nodes t in
  let msgs = Array.init n (fun i -> Cluster.delivered_at t i) in
  let bytes = Array.init n (fun i -> Cluster.delivered_bytes_at t i) in
  (msgs, bytes)

let measure_throughput t ~warmup ~duration =
  Cluster.run_for t warmup;
  let msgs0, bytes0 = snapshot t in
  Cluster.run_for t duration;
  let msgs1, bytes1 = snapshot t in
  let n = Cluster.num_nodes t in
  let dmsgs = ref 0.0 and dbytes = ref 0.0 in
  for i = 0 to n - 1 do
    dmsgs := !dmsgs +. float_of_int (msgs1.(i) - msgs0.(i));
    dbytes := !dbytes +. float_of_int (bytes1.(i) - bytes0.(i))
  done;
  (* Every message is delivered once at every node: averaging per-node
     deltas gives the system-wide ordered-message rate. *)
  let per_node_msgs = !dmsgs /. float_of_int n in
  let per_node_bytes = !dbytes /. float_of_int n in
  let seconds = Vtime.to_float_sec duration in
  {
    msgs_per_sec = per_node_msgs /. seconds;
    kbytes_per_sec = per_node_bytes /. seconds /. 1024.0;
    duration;
    messages = int_of_float per_node_msgs;
  }

let events_processed t = Cluster.events_processed t

(* A submission still awaiting deliveries: [left] is the number of
   nodes yet to deliver it, or -1 before its first delivery. *)
type pending = { sent : Vtime.t; mutable left : int }

type latency_probe = {
  summary : Stats.Summary.t;
  histogram : Stats.Histogram.t;
  mutable armed_at : Vtime.t;
  pending : (int, pending) Hashtbl.t; (* by causal tid *)
}

(* Log-spaced millisecond buckets from 10 us to ~10 s. *)
let latency_buckets =
  Array.init 60 (fun i -> 0.01 *. (1.26 ** float_of_int i))

let fresh_probe armed_at =
  {
    summary = Stats.Summary.create ();
    histogram = Stats.Histogram.create ~buckets:latency_buckets;
    armed_at;
    pending = Hashtbl.create 256;
  }

let observe_latency probe ~sent ~delivered =
  let lat = Vtime.to_float_ms (Vtime.sub delivered sent) in
  Stats.Summary.observe probe.summary lat;
  Stats.Histogram.observe probe.histogram lat

(* Submission times are kept by causal tid, recorded at the origin:
   under byte-wire a remote NIC decodes the payload to [Message.Blob],
   so only the origin's own copy still carries its [Workload.Stamped]
   time, while (origin, app_seq) survive the wire everywhere.

   An entry is dropped once every member of the ring it was delivered
   in has delivered it: its first delivery sets the count to that ring's
   size, as the delivering node sees it. A node delivers a message only
   in the ring it belongs to at the time (the old ring's remainder is
   flushed before a new ring is installed), so a message that crosses a
   ring change before it is ordered is counted against the ring that
   orders it, not the ring it was submitted in. Ring sizes are tracked
   through the ring-change hooks, which run in the same per-node order
   as the deliver hooks under the parallel core too. *)
let install_latency t =
  let probe = fresh_probe (Cluster.now t) in
  let ring_size =
    Array.init (Cluster.num_nodes t) (fun id ->
        Array.length (Srp.Srp.members (Cluster.srp (Cluster.node t id))))
  in
  Cluster.on_ring_change t (fun node ~ring_id:_ ~members ->
      ring_size.(node) <- Array.length members);
  Cluster.on_submit t (fun _node ~tid sent ->
      if sent >= probe.armed_at then
        Hashtbl.replace probe.pending tid { sent; left = -1 });
  Cluster.on_deliver t (fun node m ->
      let tid =
        Causal.tid_of ~origin:m.Srp.Message.origin ~app_seq:m.Srp.Message.app_seq
      in
      match Hashtbl.find_opt probe.pending tid with
      | Some p ->
        if p.left < 0 then p.left <- ring_size.(node);
        p.left <- p.left - 1;
        if p.left <= 0 then Hashtbl.remove probe.pending tid;
        observe_latency probe ~sent:p.sent ~delivered:(Cluster.now t)
      | None -> ());
  probe

(* A probe fed from a causal trace's per-message latency records
   instead of live deliveries: the same quantile/bucket machinery, so
   causally-traced runs and Workload.Stamped runs report through one
   code path. *)
let probe_of_causal causal =
  let probe = fresh_probe Vtime.zero in
  List.iter
    (fun (l : Causal.latency) ->
      observe_latency probe ~sent:l.Causal.l_sent
        ~delivered:l.Causal.l_delivered)
    (Causal.latencies causal);
  probe

let latency_count probe = Stats.Summary.count probe.summary
let latency_pending probe = Hashtbl.length probe.pending

(* Empty probes (n = 0) yield None rather than nan quantiles / nan
   means, so JSON emitters write an explicit null instead. *)
let latency_summary probe =
  if latency_count probe = 0 then None else Some probe.summary

let latency_quantile probe q =
  if latency_count probe = 0 then None
  else Some (Stats.Histogram.quantile probe.histogram q)

let latency_histogram_dump probe = Stats.Histogram.dump probe.histogram

(* --- per-point protocol telemetry ----------------------------------- *)

type fault_sampler = {
  fsam_interval : Vtime.t;
  mutable fsam_samples : (Vtime.t * int array) list;  (* newest first *)
}

(* Periodically snapshot the worst per-network problemCounter across all
   nodes (active replication only; other styles sample zeros). The
   sampler is read-only and is installed unconditionally by the bench
   driver, so its scheduled ticks exist whether or not tracing is on —
   figures stay bitwise identical either way. *)
let install_fault_sampler t ~interval =
  let num_nets = (Cluster.config t).Config.num_nets in
  let sampler = { fsam_interval = interval; fsam_samples = [] } in
  let rec tick () =
    let nets = Array.make num_nets 0 in
    Cluster.iter_nodes t (fun n ->
        match Totem_rrp.Rrp.as_active (Cluster.rrp n) with
        | Some a ->
          for net = 0 to num_nets - 1 do
            nets.(net) <-
              max nets.(net) (Totem_rrp.Active.problem_counter a ~net)
          done
        | None -> ());
    sampler.fsam_samples <- (Cluster.now t, nets) :: sampler.fsam_samples;
    ignore (Sim.schedule (Cluster.sim t) ~delay:interval tick)
  in
  ignore (Sim.schedule (Cluster.sim t) ~delay:interval tick);
  sampler

let fault_trajectory sampler = List.rev sampler.fsam_samples

type point_telemetry = {
  pt_rotation_count : int;
  pt_rotation_p50 : float;
  pt_rotation_p90 : float;
  pt_rotation_p99 : float;
  pt_rotation_buckets : (float * int) array;
  pt_retransmits_served : int;
  pt_retransmits_requested : int;
  pt_token_retransmits : int;
  pt_duplicate_packets : int;
  pt_duplicate_tokens : int;
  pt_trajectory : (float * int array) list;
}

let quantile_of_dump dump total q =
  if total = 0 then nan
  else begin
    let target = q *. float_of_int total in
    let acc = ref 0 in
    let result = ref infinity in
    (try
       Array.iter
         (fun (le, n) ->
           acc := !acc + n;
           if float_of_int !acc >= target then begin
             result := le;
             raise Exit
           end)
         dump
     with Exit -> ());
    !result
  end

let collect_point_telemetry ?sampler t =
  (* Rotation histograms live per node but only ring leaders observe;
     merging bucket-wise covers leadership changes. *)
  let merged = ref [||] in
  let served = ref 0 and requested = ref 0 and tok_rtr = ref 0 in
  let dup_p = ref 0 and dup_t = ref 0 in
  Cluster.iter_nodes t (fun n ->
      let srp = Cluster.srp n in
      let d = Stats.Histogram.dump (Srp.Srp.rotation_histogram srp) in
      if Array.length !merged = 0 then merged := Array.copy d
      else
        Array.iteri
          (fun i (le, c) ->
            let _, c0 = !merged.(i) in
            !merged.(i) <- (le, c0 + c))
          d;
      let s = Srp.Srp.stats srp in
      served := !served + s.Srp.Srp.retransmissions_served;
      requested := !requested + s.Srp.Srp.retransmissions_requested;
      tok_rtr := !tok_rtr + s.Srp.Srp.token_retransmits;
      dup_p := !dup_p + s.Srp.Srp.duplicate_packets;
      dup_t := !dup_t + s.Srp.Srp.duplicate_tokens);
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 !merged in
  {
    pt_rotation_count = total;
    pt_rotation_p50 = quantile_of_dump !merged total 0.5;
    pt_rotation_p90 = quantile_of_dump !merged total 0.9;
    pt_rotation_p99 = quantile_of_dump !merged total 0.99;
    pt_rotation_buckets = !merged;
    pt_retransmits_served = !served;
    pt_retransmits_requested = !requested;
    pt_token_retransmits = !tok_rtr;
    pt_duplicate_packets = !dup_p;
    pt_duplicate_tokens = !dup_t;
    pt_trajectory =
      (match sampler with
      | None -> []
      | Some s ->
        List.map
          (fun (time, nets) -> (Vtime.to_float_ms time, nets))
          (fault_trajectory s));
  }

let network_utilisation t ~net =
  let network = Totem_net.Fabric.network (Cluster.fabric t) net in
  let elapsed = Vtime.to_float_sec (Cluster.now t) in
  if elapsed <= 0.0 then 0.0
  else
    let frames = float_of_int (Totem_net.Network.frames_sent network) in
    let bytes = float_of_int (Totem_net.Network.bytes_on_wire network) in
    let wire_bits =
      8.0 *. (bytes +. (frames *. float_of_int Totem_net.Frame.preamble_ifg_bytes))
    in
    let bandwidth =
      float_of_int (Totem_net.Network.config network).Totem_net.Network.bandwidth_bps
    in
    wire_bits /. elapsed /. bandwidth
