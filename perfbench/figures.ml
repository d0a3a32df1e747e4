(* Workload "figures": the saturated Fig. 6 (4 nodes) and Fig. 7
   (6 nodes) sweeps in the configuration that publishes the figures —
   three styles x ten message sizes, two 100 Mbit/s networks, wire off,
   no faults, the classic simulator core. One sweep point is one
   operation.

   Every node always has a message ready, as in Sec. 8. The supplier
   stamps each message with the instant the SRP takes it, so the same
   run also gives the delivery latency under saturation; the payload
   size alone is what the protocol charges, so the figures are those of
   [Workload.saturate]. *)

open Common
module Cluster = Totem_cluster.Cluster
module Config = Totem_cluster.Config
module Metrics = Totem_cluster.Metrics
module Workload = Totem_cluster.Workload
module Style = Totem_rrp.Style
module Vtime = Totem_engine.Vtime
module Sim = Totem_engine.Sim
module Srp = Totem_srp.Srp
module Message = Totem_srp.Message

let sizes = [| 100; 200; 400; 700; 1024; 1400; 2048; 4096; 8192; 10240 |]

let styles =
  [| ("unreplicated", Style.No_replication); ("active", Style.Active); ("passive", Style.Passive) |]

let node_counts = [| 4; 6 |]

(* The simulator core the sweeps run on: 0, the classic loop that
   publishes the figures. The reference comparison sets it to 1. *)
let sim_domains = ref 0
let warmup = Vtime.ms 300
let duration = Vtime.sec 1

(* Networks that carry distinct data: active sends every packet on
   both, so its payload is bounded by one network. *)
let nets_with_data = function Style.Passive -> 2 | _ -> 1

type state = {
  seed : int;
  order : Checks.order;
  lat : ibuf;  (* latencies (ns) of messages stamped after the warm-up *)
}

type point = {
  msgs_per_sec : float;
  kbytes_per_sec : float;
  p50_ns : float;
  p99_ns : float;
  events : int;
}

let run_point st counts ~num_nodes ~style ~size =
  let config = Config.paper_testbed ~num_nodes ~style in
  let config = { config with Config.seed = st.seed; sim_domains = !sim_domains } in
  Checks.order_reset st.order ~nodes:num_nodes;
  st.lat.n <- 0;
  let t0 = Timeshare.norm () in
  let cluster = Meter.call sp_create (fun () -> Cluster.create config) in
  add counts "cluster.create_s" (Timeshare.norm () -. t0);
  add counts "cluster.creates" 1.0;
  trace_program cluster;
  (* The figure runs sample the problem counters every 50 ms of
     virtual time; the sampler's events are part of the run. *)
  let sampler =
    Meter.call sp_install (fun () -> Metrics.install_fault_sampler cluster ~interval:(Vtime.ms 50))
  in
  let measured_from = warmup in
  Meter.call sp_install (fun () ->
      Cluster.on_deliver cluster (fun node m ->
          Checks.order_note st.order ~node ~origin:m.Message.origin
            ~app_seq:m.Message.app_seq;
          match m.Message.data with
          | Workload.Stamped sent when sent >= measured_from ->
            push st.lat (Cluster.now cluster - sent)
          | _ -> ()));
  Meter.call sp_start (fun () -> Cluster.start cluster);
  Meter.call sp_install (fun () ->
      for id = 0 to num_nodes - 1 do
        let sim = Cluster.node_sim cluster id in
        Srp.set_supplier
          (Cluster.srp (Cluster.node cluster id))
          (fun () -> Some (size, Workload.Stamped (Sim.now sim)))
      done);
  Meter.call sp_run_for (fun () -> Cluster.run_for cluster warmup);
  let snap () =
    Meter.call sp_metrics (fun () ->
        Array.init num_nodes (fun i ->
            (Cluster.delivered_at cluster i, Cluster.delivered_bytes_at cluster i)))
  in
  let s0 = snap () in
  Meter.call sp_run_for (fun () -> Cluster.run_for cluster duration);
  let s1 = snap () in
  let pt = Meter.call sp_metrics (fun () -> Metrics.collect_point_telemetry ~sampler cluster) in
  let events = Meter.call sp_metrics (fun () -> Metrics.events_processed cluster) in
  Meter.call sp_registry (fun () -> add_registry counts (Cluster.telemetry cluster));
  Meter.call sp_shutdown (fun () -> Cluster.shutdown cluster);
  add counts "srp.rotation_p50_ms" pt.Metrics.pt_rotation_p50;
  add counts "srp.rotation_points" 1.0;
  (* Metrics.measure_throughput's arithmetic: per-node delivery deltas
     averaged over the nodes. *)
  let dm = ref 0 and db = ref 0 in
  Array.iteri
    (fun i (m1, b1) ->
      let m0, b0 = s0.(i) in
      dm := !dm + (m1 - m0);
      db := !db + (b1 - b0))
    s1;
  let secs = Vtime.to_float_sec duration and n = float_of_int num_nodes in
  let p50_ns, p99_ns = Checks.p50_p99 st.lat.data st.lat.n in
  {
    msgs_per_sec = float_of_int !dm /. n /. secs;
    kbytes_per_sec = float_of_int !db /. n /. secs /. 1024.0;
    p50_ns;
    p99_ns;
    events;
  }

let setup ~seed =
  { seed; order = Checks.order_create ~nodes:6 ~capacity:(1 lsl 18); lat = ibuf (1 lsl 20) }

let ops_per_round = Array.length node_counts * Array.length styles * Array.length sizes

(* A sweep point fails when its order or KB/s check fails; every point
   of a sweep fails when the sweep's Sec. 8 shape does not hold. *)
let round st =
  let counts = counts_create () in
  let checks = ref [] and failed = ref 0 in
  let rates = ref [] and p50s = ref [] and p99s = ref [] in
  let events = ref 0 in
  let ceiling style =
    Checks.kb_ceiling ~nets_with_data:(nets_with_data style) ~bandwidth_bps:100_000_000
      ~frame_bytes:(Totem_net.Frame.max_payload_bytes + Totem_net.Frame.header_overhead_bytes)
      ~payload_bytes:Totem_net.Frame.max_payload_bytes
  in
  Array.iter
    (fun num_nodes ->
      let points_failed = ref 0 in
      let grid =
        Array.map
          (fun (label, style) ->
            Array.map
              (fun size ->
                let p = run_point st counts ~num_nodes ~style ~size in
                let where = Printf.sprintf "%d nodes %s %d B" num_nodes label size in
                let own =
                  [
                    Checks.order_check (where ^ ": agreed order") st.order;
                    Checks.kb_bound (where ^ ": KB/s within the wire") ~ceiling:(ceiling style)
                      p.kbytes_per_sec;
                  ]
                in
                if not (List.for_all (fun c -> c.Checks.ok) own) then incr points_failed;
                checks := List.rev_append own !checks;
                rates := p.msgs_per_sec :: !rates;
                p50s := p.p50_ns :: !p50s;
                p99s := p.p99_ns :: !p99s;
                events := !events + p.events;
                p)
              sizes)
          styles
      in
      let rate s = Array.map (fun p -> p.msgs_per_sec) grid.(s) in
      let shape =
        Checks.sec8_shape
          ~label:(Printf.sprintf "%d nodes" num_nodes)
          ~sizes ~none_rate:(rate 0) ~active_rate:(rate 1) ~passive_rate:(rate 2)
          ~none_kb:(Array.map (fun p -> p.kbytes_per_sec) grid.(0))
      in
      failed :=
        !failed
        + (if List.for_all (fun c -> c.Checks.ok) shape then !points_failed
           else Array.length styles * Array.length sizes);
      checks := List.rev_append shape !checks)
    node_counts;
  {
    ops = ops_per_round;
    failed = !failed;
    events = !events;
    delivered_per_sim_s = geomean (Array.of_list !rates);
    p50_ms = geomean (Array.of_list !p50s) /. 1e6;
    p99_ms = geomean (Array.of_list !p99s) /. 1e6;
    counts = counts_list counts;
    op_checks = List.rev !checks;
    run_checks = [];
  }
