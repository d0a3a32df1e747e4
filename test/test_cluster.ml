(* The cluster harness: configuration, metrics, workloads, scenarios,
   and whole-run determinism. *)

open Util

let test_config_validation () =
  Alcotest.(check bool) "defaults valid" true
    (Result.is_ok (Config.validate (Config.make ())));
  Alcotest.(check bool) "zero nodes invalid" true
    (Result.is_error (Config.validate (Config.make ~num_nodes:0 ())));
  Alcotest.(check bool) "zero nets invalid" true
    (Result.is_error (Config.validate (Config.make ~num_nets:0 ())));
  Alcotest.(check bool) "active-passive on 2 nets invalid" true
    (Result.is_error
       (Config.validate (Config.make ~style:(Style.Active_passive 2) ())));
  Alcotest.(check bool) "net_configs mismatch" true
    (Result.is_error
       (Config.validate
          (Config.make ~num_nets:2
             ~net_configs:[| Totem_net.Network.default_config |] ())));
  Alcotest.check_raises "create rejects invalid"
    (Invalid_argument "Cluster.create: need at least one node") (fun () ->
      ignore (Cluster.create (Config.make ~num_nodes:0 ())))

let test_paper_testbed () =
  let c = Config.paper_testbed ~num_nodes:6 ~style:Style.Active in
  Alcotest.(check int) "six nodes" 6 c.Config.num_nodes;
  Alcotest.(check int) "two networks" 2 c.Config.num_nets

let test_throughput_measurement () =
  let t = make () in
  Cluster.start t.cluster;
  Workload.saturate t.cluster ~size:1024;
  let tp =
    Metrics.measure_throughput t.cluster ~warmup:(Vtime.ms 200)
      ~duration:(Vtime.sec 1)
  in
  Alcotest.(check bool) "sane rate" true
    (tp.Metrics.msgs_per_sec > 5000.0 && tp.Metrics.msgs_per_sec < 30000.0);
  (* 1 KB messages: KB/s tracks msgs/s. *)
  Alcotest.(check (float 1.0)) "bytes consistent" tp.Metrics.msgs_per_sec
    tp.Metrics.kbytes_per_sec

let test_latency_probe () =
  let t = make () in
  Cluster.start t.cluster;
  let probe = Metrics.install_latency t.cluster in
  Workload.fixed_rate t.cluster ~node:1 ~size:512 ~interval:(Vtime.ms 5)
    ~count:100 ();
  run_ms t 1000;
  let s =
    match Metrics.latency_summary probe with
    | Some s -> s
    | None -> Alcotest.fail "latency probe is empty"
  in
  Alcotest.(check bool) "samples collected (100 msgs x 4 nodes)" true
    (Totem_engine.Stats.Summary.count s = 400);
  let mean = Totem_engine.Stats.Summary.mean s in
  Alcotest.(check bool) "latency within LAN bounds" true
    (mean > 0.01 && mean < 50.0)

(* Under byte-wire a remote NIC decodes the payload to [Message.Blob],
   so the stamp survives only at the origin; the probe must still count
   every node's delivery, in classic mode and under the parallel core
   (where the submission hook is deferred to the barrier). *)
let test_wire_latency_counts_every_node () =
  List.iter
    (fun sim_domains ->
      let config = Config.make ~num_nodes:4 ~wire_bytes:true ~sim_domains () in
      let cluster = Cluster.create config in
      Cluster.start cluster;
      let probe = Metrics.install_latency cluster in
      Workload.fixed_rate cluster ~node:1 ~size:512 ~interval:(Vtime.ms 5)
        ~count:100 ();
      Cluster.run_for cluster (Vtime.ms 1000);
      Alcotest.(check int)
        (Printf.sprintf "100 msgs x 4 nodes at sim_domains %d" sim_domains)
        400 (Metrics.latency_count probe);
      Cluster.shutdown cluster)
    [ 0; 1 ]

(* A crashed node never delivers again. Once the survivors have formed
   their own ring, each message is expected at three nodes and its entry
   is dropped at the third delivery, so the probe holds only what a ring
   change cut short, not every message sent after the crash. *)
let test_latency_probe_bounded_after_crash () =
  List.iter
    (fun sim_domains ->
      let config = Config.make ~num_nodes:4 ~sim_domains () in
      let cluster = Cluster.create config in
      Cluster.start cluster;
      let probe = Metrics.install_latency cluster in
      Workload.fixed_rate cluster ~node:1 ~size:512 ~interval:(Vtime.ms 2)
        ~count:1000 ();
      Cluster.run_for cluster (Vtime.ms 200);
      Cluster.crash_node cluster 3;
      Cluster.run_for cluster (Vtime.ms 2800);
      let label what = Printf.sprintf "%s at sim_domains %d" what sim_domains in
      Alcotest.(check int) (label "survivors delivered every message") 1000
        (Cluster.delivered_at cluster 1);
      Alcotest.(check int) (label "every delivery observed")
        (Cluster.total_delivered_messages cluster)
        (Metrics.latency_count probe);
      (* ~900 messages were sent after the crash; at most a flow-control
         window of them can be cut short by the ring change. *)
      let pending = Metrics.latency_pending probe in
      if pending > 64 then
        Alcotest.failf "%s: %d submissions still pending"
          (label "probe after crash") pending;
      Cluster.shutdown cluster)
    [ 0; 1 ]

let test_fixed_rate_count () =
  let t = make () in
  Cluster.start t.cluster;
  Workload.fixed_rate t.cluster ~node:2 ~size:256 ~interval:(Vtime.ms 2)
    ~count:50 ();
  run_ms t 1000;
  check_delivered_everything t ~expected:50

let test_poisson_workload () =
  let t = make () in
  Cluster.start t.cluster;
  Workload.poisson t.cluster ~node:1 ~size:256 ~mean_interval:(Vtime.ms 2)
    ~count:100 ();
  run_ms t 3000;
  check_delivered_everything t ~expected:100

let test_burst_workload () =
  let t = make () in
  Cluster.start t.cluster;
  Workload.burst t.cluster ~node:3 ~size:512 ~count:200 ~at:(Vtime.ms 100);
  run_ms t 2000;
  check_delivered_everything t ~expected:200

let test_scenario_scheduling () =
  let t = make ~style:Style.Active () in
  Cluster.start t.cluster;
  Workload.saturate t.cluster ~size:1024;
  Scenario.schedule t.cluster
    [
      (Vtime.ms 300, Totem_cluster.Scenario.Fail_network 0);
      (Vtime.ms 1500, Totem_cluster.Scenario.Heal_network 0);
    ];
  run_ms t 1000;
  Alcotest.(check bool) "fault marked while scheduled outage" true
    (Totem_rrp.Rrp.faulty (rrp_of t 0)).(0);
  run_ms t 1000;
  Alcotest.(check bool) "heal cleared the mark" false
    (Totem_rrp.Rrp.faulty (rrp_of t 0)).(0)

let test_network_utilisation_bounds () =
  let t = make ~style:Style.No_replication () in
  Cluster.start t.cluster;
  Workload.saturate t.cluster ~size:1024;
  run_ms t 1000;
  let u = Metrics.network_utilisation t.cluster ~net:0 in
  Alcotest.(check bool) "utilisation sane" true (u > 0.5 && u <= 1.0);
  let u1 = Metrics.network_utilisation t.cluster ~net:1 in
  Alcotest.(check (float 0.001)) "unused network idle" 0.0 u1

let run_fingerprint ~seed =
  let t = make ~seed ~style:Style.Passive () in
  Cluster.start t.cluster;
  Workload.saturate t.cluster ~size:700;
  Cluster.set_network_loss t.cluster 0 0.05;
  run_ms t 1000;
  ( Cluster.delivered_at t.cluster 0,
    Cluster.delivered_at t.cluster 3,
    (Srp.stats (srp_of t 1)).Srp.retransmissions_served,
    order t 2 )

let test_determinism_same_seed () =
  let a = run_fingerprint ~seed:99 and b = run_fingerprint ~seed:99 in
  Alcotest.(check bool) "bit-identical runs" true (a = b)

let test_determinism_seed_sensitivity () =
  let a = run_fingerprint ~seed:1 and b = run_fingerprint ~seed:2 in
  let d0 (x, _, _, _) = x in
  (* Different loss draws make different retransmission schedules; the
     delivered counts will differ at least slightly. *)
  Alcotest.(check bool) "seeds matter" true (d0 a <> d0 b || a <> b)

let test_six_node_cluster () =
  let t = make ~num_nodes:6 () in
  Cluster.start t.cluster;
  submit_n t ~node:5 ~size:512 10;
  run_ms t 500;
  check_delivered_everything t ~expected:10

let test_two_node_cluster () =
  let t = make ~num_nodes:2 () in
  Cluster.start t.cluster;
  submit_n t ~node:1 ~size:512 10;
  run_ms t 500;
  check_delivered_everything t ~expected:10

let tests =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "paper testbed shorthand" `Quick test_paper_testbed;
    Alcotest.test_case "throughput measurement" `Quick test_throughput_measurement;
    Alcotest.test_case "latency probe" `Quick test_latency_probe;
    Alcotest.test_case "byte-wire latency counts every node" `Quick
      test_wire_latency_counts_every_node;
    Alcotest.test_case "latency probe stays bounded after a crash" `Quick
      test_latency_probe_bounded_after_crash;
    Alcotest.test_case "fixed-rate workload" `Quick test_fixed_rate_count;
    Alcotest.test_case "poisson workload" `Quick test_poisson_workload;
    Alcotest.test_case "burst workload" `Quick test_burst_workload;
    Alcotest.test_case "scenario scheduling" `Quick test_scenario_scheduling;
    Alcotest.test_case "network utilisation" `Quick test_network_utilisation_bounds;
    Alcotest.test_case "determinism: same seed, same run" `Quick
      test_determinism_same_seed;
    Alcotest.test_case "determinism: seeds matter" `Quick
      test_determinism_seed_sensitivity;
    Alcotest.test_case "six nodes" `Quick test_six_node_cluster;
    Alcotest.test_case "two nodes" `Quick test_two_node_cluster;
  ]
