(* Causal message tracing and the flight recorder.

   The two OBSERVABILITY.md invariants, checked end to end: arming the
   tracer never changes what the simulation computes, and every export
   is bitwise-identical under the parallel core for any domain count —
   both reconstruction inputs arrive through the root telemetry hub in
   canonical (time, source, seq) order. *)

module Cluster = Totem_cluster.Cluster
module Config = Totem_cluster.Config
module Workload = Totem_cluster.Workload
module Style = Totem_rrp.Style
module Vtime = Totem_engine.Vtime
module Causal = Totem_engine.Causal
module Recorder = Totem_engine.Recorder

let test_tid_round_trip () =
  List.iter
    (fun (origin, app_seq) ->
      let tid = Causal.tid_of ~origin ~app_seq in
      Alcotest.(check int) "origin survives" origin (Causal.tid_origin tid);
      Alcotest.(check int) "app_seq survives" app_seq (Causal.tid_app_seq tid))
    [ (0, 0); (0, 1); (3, 17); (41, 1_000_000); (1000, (1 lsl 40) - 1) ];
  Alcotest.check_raises "negative origin rejected"
    (Invalid_argument "Causal.tid_of") (fun () ->
      ignore (Causal.tid_of ~origin:(-1) ~app_seq:0))

(* A small lossy byte-wire run with traffic from two origins: exercises
   packing, both networks, retransmission and per-node delivery. *)
let traced_run ~style ~sim_domains =
  let config =
    Config.make ~num_nodes:4 ~num_nets:2 ~style ~seed:7 ~wire_bytes:true
      ~sim_domains ()
  in
  let cluster = Cluster.create config in
  let telemetry = Cluster.telemetry cluster in
  let causal, _ = Causal.attach telemetry in
  let recorder = Recorder.attach ~capacity:32 ~nodes:4 telemetry in
  Cluster.start cluster;
  Cluster.set_network_loss cluster 0 0.05;
  Workload.fixed_rate cluster ~node:0 ~size:600 ~interval:(Vtime.ms 3)
    ~count:40 ();
  Workload.fixed_rate cluster ~node:2 ~size:300 ~interval:(Vtime.ms 5)
    ~count:20 ();
  Cluster.run_for cluster (Vtime.ms 400);
  (causal, Recorder.dump_jsonl recorder)

let style_name = function
  | Style.No_replication -> "no-replication"
  | Style.Active -> "active"
  | Style.Passive -> "passive"
  | Style.Active_passive k -> Printf.sprintf "ap:%d" k

let test_domains_deterministic style () =
  let c1, rec1 = traced_run ~style ~sim_domains:1 in
  let c8, rec8 = traced_run ~style ~sim_domains:8 in
  let t1 = Causal.chrome_json c1 and t8 = Causal.chrome_json c8 in
  Alcotest.(check bool)
    (Printf.sprintf "causal trace byte-identical d1 vs d8 (%d bytes)"
       (String.length t1))
    true (String.equal t1 t8);
  Alcotest.(check bool) "flight-recorder dump identical d1 vs d8" true
    (rec1 = rec8);
  Alcotest.(check bool) "trace is non-trivial" true (String.length t1 > 4096);
  Alcotest.(check bool) "recorder captured per-node history" true
    (List.length rec1 >= 4)

let test_reconstruction_sane () =
  let causal, _ = traced_run ~style:Style.Active ~sim_domains:0 in
  let records = Causal.records causal in
  Alcotest.(check int) "one record per submitted message" 60
    (List.length records);
  List.iter
    (fun r ->
      Alcotest.(check bool) "origination observed" true
        (r.Causal.r_originated <> None);
      Alcotest.(check bool) "ordered at least once" true
        (r.Causal.r_ordered <> []);
      Alcotest.(check bool) "packet hops recorded" true (r.Causal.r_hops <> []);
      Alcotest.(check int) "delivered on all four nodes" 4
        (List.length r.Causal.r_deliveries))
    records;
  let lats = Causal.latencies causal in
  Alcotest.(check int) "one latency per (message, node)" (60 * 4)
    (List.length lats);
  List.iter
    (fun l ->
      Alcotest.(check bool) "delivery not before origination" true
        (Vtime.( <= ) l.Causal.l_sent l.Causal.l_delivered))
    lats

(* Invariant 2 of OBSERVABILITY.md, end to end: a fully traced run and
   an untraced run of the same configuration compute the identical
   simulation — same event count, same deliveries everywhere. *)
let run_fingerprint ~traced =
  let config =
    Config.make ~num_nodes:4 ~num_nets:2 ~style:Style.Passive ~seed:11
      ~wire_bytes:true ()
  in
  let cluster = Cluster.create config in
  let attached =
    if traced then begin
      let causal, _ = Causal.attach (Cluster.telemetry cluster) in
      let recorder = Recorder.attach ~capacity:64 ~nodes:4 (Cluster.telemetry cluster) in
      Some (causal, recorder)
    end
    else None
  in
  Cluster.start cluster;
  Cluster.set_network_loss cluster 0 0.05;
  Workload.fixed_rate cluster ~node:1 ~size:700 ~interval:(Vtime.ms 2)
    ~count:100 ();
  Cluster.run_for cluster (Vtime.ms 600);
  (match attached with
  | Some (causal, _) ->
    Alcotest.(check bool) "tracer saw the run" true
      (Causal.steps_observed causal > 0)
  | None -> ());
  ( Array.init 4 (fun node -> Cluster.delivered_at cluster node),
    Cluster.events_processed cluster )

let test_tracing_changes_nothing () =
  let traced = run_fingerprint ~traced:true in
  let untraced = run_fingerprint ~traced:false in
  Alcotest.(check bool) "traced and untraced runs bitwise-identical" true
    (traced = untraced)

(* Reinstatement-protocol events are attributed to the node whose RRP
   layer emitted them, so the flight recorder shards a condemnation or
   probation verdict into that node's ring, not a global one. *)
let test_reinstatement_events_attributed () =
  let module Telemetry = Totem_engine.Telemetry in
  List.iter
    (fun (label, node, ev) ->
      Alcotest.(check int) label node (Telemetry.node_of_event ev))
    [
      ( "condemned",
        2,
        Telemetry.Net_condemned { node = 2; net = 1; flaps = 0 } );
      ( "probation",
        3,
        Telemetry.Net_probation { node = 3; net = 0; attempt = 1 } );
      ( "reinstated",
        1,
        Telemetry.Net_reinstated { node = 1; net = 1; rotations = 20 } );
      ( "fault marked",
        0,
        Telemetry.Net_fault_marked { node = 0; net = 1; evidence = "test" } );
    ];
  Alcotest.(check int) "net status is node-less" (-1)
    (Telemetry.node_of_event
       (Telemetry.Net_status { net = 0; status = "burst" }))

let tests =
  [
    Alcotest.test_case "trace id round trip" `Quick test_tid_round_trip;
    Alcotest.test_case "d1 vs d8 deterministic: no replication" `Quick
      (test_domains_deterministic Style.No_replication);
    Alcotest.test_case "d1 vs d8 deterministic: active" `Quick
      (test_domains_deterministic Style.Active);
    Alcotest.test_case "d1 vs d8 deterministic: passive" `Quick
      (test_domains_deterministic Style.Passive);
    Alcotest.test_case "reconstruction is sane" `Quick test_reconstruction_sane;
    Alcotest.test_case "tracing changes nothing" `Quick
      test_tracing_changes_nothing;
    Alcotest.test_case "reinstatement events attributed to their node" `Quick
      test_reinstatement_events_attributed;
  ]
