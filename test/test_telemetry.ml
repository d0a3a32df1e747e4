open Totem_engine
module Cluster = Totem_cluster.Cluster
module Config = Totem_cluster.Config
module Workload = Totem_cluster.Workload
module Style = Totem_rrp.Style
module Rrp_config = Totem_rrp.Rrp_config

(* --- registry ------------------------------------------------------- *)

let test_registry () =
  let sim = Sim.create () in
  let tl = Telemetry.create sim in
  let c = Telemetry.counter tl "x.count" in
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  (* Registering the same name again retrieves the same counter. *)
  let c' = Telemetry.counter tl "x.count" in
  Stats.Counter.incr c';
  Alcotest.(check int) "counter value" 6 (Stats.Counter.value c);
  Telemetry.gauge tl "x.level" (fun () -> 2.5);
  (match Telemetry.find_metric tl "x.level" with
  | Some (Telemetry.Gauge f) ->
    Alcotest.(check (float 0.0)) "gauge reads" 2.5 (f ())
  | _ -> Alcotest.fail "gauge not registered");
  let h = Telemetry.histogram ~buckets:[| 1.0; 2.0; 4.0 |] tl "x.hist" in
  List.iter (Stats.Histogram.observe h) [ 0.5; 1.5; 3.0; 9.0 ];
  Alcotest.(check int) "histogram count" 4 (Stats.Histogram.count h);
  (match Stats.Histogram.dump h with
  | [| (le0, n0); (le1, n1); (le2, n2); (le3, n3) |] ->
    Alcotest.(check (float 0.0)) "bucket 0 bound" 1.0 le0;
    Alcotest.(check (float 0.0)) "bucket 1 bound" 2.0 le1;
    Alcotest.(check (float 0.0)) "bucket 2 bound" 4.0 le2;
    Alcotest.(check (float 0.0)) "overflow bound" infinity le3;
    Alcotest.(check (list int)) "bucket counts" [ 1; 1; 1; 1 ] [ n0; n1; n2; n3 ]
  | d -> Alcotest.failf "expected 4 buckets, got %d" (Array.length d));
  Alcotest.(check int) "registry size" 3 (List.length (Telemetry.metrics tl))

(* --- disabled mode -------------------------------------------------- *)

let test_disabled_no_effect () =
  let sim = Sim.create () in
  let tl = Telemetry.create sim in
  Alcotest.(check bool) "inactive by default" false (Telemetry.active tl);
  Telemetry.emit tl (Telemetry.Token_loss { node = 0; ring_id = 1 });
  Telemetry.custom tl ~component:"x" "nobody listening";
  Telemetry.customf tl ~component:"x" "still %s" "nobody";
  Alcotest.(check int) "ring stays empty" 0 (List.length (Telemetry.events tl));
  Alcotest.(check bool) "seq stays empty" true
    (Seq.is_empty (Telemetry.events_seq tl))

(* --- the event ring ---------------------------------------------------- *)

let messages tl =
  List.map
    (fun e -> Telemetry.message_of e.Telemetry.event)
    (Telemetry.events tl)

let test_capacity_guard () =
  let sim = Sim.create () in
  let expect_invalid capacity =
    match Telemetry.create ~capacity sim with
    | _ -> Alcotest.failf "capacity %d accepted" capacity
    | exception Invalid_argument _ -> ()
  in
  expect_invalid 0;
  expect_invalid (-3)

let test_emit_order () =
  let sim = Sim.create () in
  let tl = Telemetry.create sim in
  Telemetry.set_tracing tl true;
  Telemetry.custom tl ~component:"a" "first";
  ignore
    (Sim.schedule sim ~delay:(Vtime.ms 1) (fun () ->
         Telemetry.custom tl ~component:"b" "second"));
  Sim.run_until sim (Vtime.ms 2);
  match Telemetry.events tl with
  | [ e1; e2 ] ->
    Alcotest.(check string) "first" "a" (Telemetry.component_of e1.event);
    Alcotest.(check string) "second" "second" (Telemetry.message_of e2.event);
    Alcotest.(check int) "timestamped" (Vtime.ms 1) e2.Telemetry.time
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

(* The ring keeps the newest [capacity] events, oldest first, and the
   allocation-free [events_seq] walks it in the same order. *)
let test_ring_overwrite () =
  let sim = Sim.create () in
  let tl = Telemetry.create ~capacity:4 sim in
  Telemetry.set_tracing tl true;
  for i = 1 to 10 do
    Telemetry.custom tl ~component:"x" (string_of_int i)
  done;
  Alcotest.(check (list string)) "last four" [ "7"; "8"; "9"; "10" ]
    (messages tl);
  Alcotest.(check (list string)) "seq follows ring" (messages tl)
    (List.of_seq
       (Seq.map
          (fun e -> Telemetry.message_of e.Telemetry.event)
          (Telemetry.events_seq tl)))

let test_clear () =
  let sim = Sim.create () in
  let tl = Telemetry.create sim in
  Telemetry.set_tracing tl true;
  Telemetry.custom tl ~component:"x" "a";
  Telemetry.clear tl;
  Alcotest.(check int) "cleared" 0 (List.length (Telemetry.events tl));
  Telemetry.custom tl ~component:"x" "b";
  Alcotest.(check (list string)) "records again" [ "b" ] (messages tl)

(* Inactive, [customf] consumes its arguments without formatting them:
   a %a printer that would fail the test is never called. *)
let test_customf_lazy () =
  let sim = Sim.create () in
  let tl = Telemetry.create sim in
  let never _ _ = Alcotest.fail "formatted while inactive" in
  Telemetry.customf tl ~component:"x" "value %d %a" 1 never ();
  Alcotest.(check int) "nothing" 0 (List.length (Telemetry.events tl))

(* --- scripted active-mode fault: exact event sequence ---------------- *)

type problem_ev =
  | Incr of int * int  (* net, count *)
  | Thresh of int * int * int  (* net, count, threshold *)
  | Marked of int  (* net *)

(* Fail network 1 under active replication with threshold 3 and decay
   effectively off: every node must log exactly
   incr(1) incr(2) incr(3) threshold marked for network 1 — and nothing
   at all for the healthy network 0. *)
let test_active_threshold_sequence () =
  let rrp =
    {
      Rrp_config.default with
      Rrp_config.active_problem_threshold = 3;
      active_decay_interval = Vtime.sec 1000;
    }
  in
  let config = Config.make ~num_nodes:4 ~num_nets:2 ~style:Style.Active ~rrp () in
  let cluster = Cluster.create config in
  let tl = Cluster.telemetry cluster in
  let log = ref [] in
  Telemetry.set_sink tl (fun _time ev ->
      match ev with
      | Telemetry.Problem_incr { node; net; count } ->
        log := (node, Incr (net, count)) :: !log
      | Telemetry.Problem_threshold { node; net; count; threshold } ->
        log := (node, Thresh (net, count, threshold)) :: !log
      | Telemetry.Net_fault_marked { node; net; _ } ->
        log := (node, Marked net) :: !log
      | _ -> ());
  Cluster.start cluster;
  Cluster.run_for cluster (Vtime.ms 100);
  Alcotest.(check int) "quiet while healthy" 0 (List.length !log);
  Cluster.fail_network cluster 1;
  Cluster.run_for cluster (Vtime.ms 500);
  let expected = [ Incr (1, 1); Incr (1, 2); Incr (1, 3); Thresh (1, 3, 3); Marked 1 ] in
  for node = 0 to 3 do
    let seen =
      List.rev
        (List.filter_map
           (fun (n, ev) -> if n = node then Some ev else None)
           !log)
    in
    if seen <> expected then
      Alcotest.failf "node %d: unexpected problem-event sequence (%d events)"
        node (List.length seen)
  done;
  List.iter
    (fun (_, ev) ->
      let net = match ev with Incr (n, _) | Thresh (n, _, _) | Marked n -> n in
      Alcotest.(check int) "only network 1 implicated" 1 net)
    !log

(* --- passive-mode token-hold spans ----------------------------------- *)

(* Under sporadic loss the passive layer buffers tokens waiting for
   missing messages; every hold must resolve within the 10 ms
   passive_token_timeout (Sec. 6) — by the timer if not sooner by the
   catch-up fast path. *)
let test_passive_hold_spans () =
  let config = Config.make ~num_nodes:4 ~num_nets:2 ~style:Style.Passive () in
  let timeout = Rrp_config.default.Rrp_config.passive_token_timeout in
  let cluster = Cluster.create config in
  let tl = Cluster.telemetry cluster in
  let pending = Hashtbl.create 8 in
  let spans = ref [] in
  Telemetry.set_sink tl (fun time ev ->
      match ev with
      | Telemetry.Token_hold { node; _ } -> Hashtbl.replace pending node time
      | Telemetry.Token_release { node; _ } -> (
        match Hashtbl.find_opt pending node with
        | Some t0 ->
          Hashtbl.remove pending node;
          spans := Vtime.sub time t0 :: !spans
        | None -> ())
      | _ -> ());
  Cluster.start cluster;
  Cluster.set_network_loss cluster 0 0.05;
  Cluster.set_network_loss cluster 1 0.05;
  Workload.saturate cluster ~size:512;
  Cluster.run_for cluster (Vtime.ms 300);
  Alcotest.(check bool) "observed token holds" true (!spans <> []);
  List.iter
    (fun dt ->
      if dt < Vtime.zero || dt > timeout then
        Alcotest.failf "hold span %.3f ms outside [0, %.0f ms]"
          (Vtime.to_float_ms dt) (Vtime.to_float_ms timeout))
    !spans

(* --- determinism: telemetry must not change the simulation ----------- *)

let run_instrumented ~telemetry_on =
  let config = Config.make ~num_nodes:4 ~num_nets:2 ~style:Style.Active () in
  let cluster = Cluster.create config in
  let seen = ref 0 in
  if telemetry_on then begin
    let tl = Cluster.telemetry cluster in
    Telemetry.set_tracing tl true;
    Telemetry.set_sink tl (fun _ _ -> incr seen)
  end;
  Cluster.start cluster;
  Workload.saturate cluster ~size:700;
  Cluster.run_for cluster (Vtime.ms 200);
  let delivered = List.init 4 (fun i -> Cluster.delivered_at cluster i) in
  let bytes = List.init 4 (fun i -> Cluster.delivered_bytes_at cluster i) in
  (delivered, bytes, Sim.events_processed (Cluster.sim cluster), !seen)

let test_determinism () =
  let d_off, b_off, ev_off, seen_off = run_instrumented ~telemetry_on:false in
  let d_on, b_on, ev_on, seen_on = run_instrumented ~telemetry_on:true in
  Alcotest.(check (list int)) "deliveries identical" d_off d_on;
  Alcotest.(check (list int)) "bytes identical" b_off b_on;
  Alcotest.(check int) "simulator event count identical" ev_off ev_on;
  Alcotest.(check int) "off-run saw nothing" 0 seen_off;
  Alcotest.(check bool) "on-run saw events" true (seen_on > 0)

(* --- flight recorder ---------------------------------------------------- *)

let tok_at seq = { Telemetry.ring_id = 1; seq; rotation = 0; hops = seq }

(* Recording is two array stores: with the events built beforehand,
   emitting thousands of them through an attached recorder allocates a
   constant number of words, not a number per event. *)
let test_recorder_allocation () =
  let sim = Sim.create () in
  let tl = Telemetry.create sim in
  let recorder = Recorder.attach ~capacity:16 ~nodes:2 tl in
  let n = 10_000 in
  let events =
    Array.init n (fun i ->
        if i mod 3 = 2 then Telemetry.Frame_loss { net = 0; src = i mod 2 }
        else Telemetry.Token_rx { node = i mod 2; tok = tok_at i })
  in
  let w0 = Gc.minor_words () in
  Array.iter (Telemetry.emit tl) events;
  let words = Gc.minor_words () -. w0 in
  if words > 64.0 then
    Alcotest.failf "recording %d events allocated %.0f words" n words;
  Alcotest.(check int) "node ring full" 16
    (List.length (Recorder.node_history recorder 0))

(* Past capacity a ring keeps the newest entries, oldest first, in each
   node's ring and in the fabric ring alike. *)
let test_recorder_wrap () =
  let sim = Sim.create () in
  let tl = Telemetry.create sim in
  let recorder = Recorder.attach ~capacity:4 ~nodes:2 tl in
  for i = 1 to 10 do
    Sim.run_until sim (Vtime.us i);
    Telemetry.emit tl (Telemetry.Token_rx { node = 1; tok = tok_at i });
    if i <= 6 then Telemetry.emit tl (Telemetry.Frame_loss { net = 0; src = i })
  done;
  let seqs entries =
    List.map
      (fun (e : Telemetry.entry) ->
        match e.event with
        | Telemetry.Token_rx { tok; _ } -> tok.Telemetry.seq
        | Telemetry.Frame_loss { src; _ } -> src
        | _ -> Alcotest.fail "unexpected event")
      entries
  in
  let node1 = Recorder.node_history recorder 1 in
  Alcotest.(check (list int)) "last four, oldest first" [ 7; 8; 9; 10 ] (seqs node1);
  Alcotest.(check (list int)) "their times" [ 7_000; 8_000; 9_000; 10_000 ]
    (List.map (fun (e : Telemetry.entry) -> e.time) node1);
  Alcotest.(check (list int)) "fabric ring wraps too" [ 3; 4; 5; 6 ]
    (seqs (Recorder.fabric_history recorder));
  Alcotest.(check (list int)) "empty node ring" [] (seqs (Recorder.node_history recorder 0));
  Alcotest.(check (list int)) "dump: node order, fabric last" [ 1; -1 ]
    (List.map fst (Recorder.dump recorder));
  Recorder.clear recorder;
  Alcotest.(check int) "clear empties" 0 (List.length (Recorder.dump recorder))

let tests =
  [
    Alcotest.test_case "metrics registry" `Quick test_registry;
    Alcotest.test_case "disabled mode has no effect" `Quick
      test_disabled_no_effect;
    Alcotest.test_case "active problemCounter event sequence" `Quick
      test_active_threshold_sequence;
    Alcotest.test_case "passive token-hold spans within timeout" `Quick
      test_passive_hold_spans;
    Alcotest.test_case "telemetry preserves determinism" `Quick
      test_determinism;
    Alcotest.test_case "recorder allocates nothing per event" `Quick
      test_recorder_allocation;
    Alcotest.test_case "recorder ring wrap keeps the newest, oldest first"
      `Quick test_recorder_wrap;
  ]

let ring_tests =
  [
    Alcotest.test_case "capacity must be positive" `Quick test_capacity_guard;
    Alcotest.test_case "emit order and timestamps" `Quick test_emit_order;
    Alcotest.test_case "ring overwrite" `Quick test_ring_overwrite;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "customf disabled is lazy" `Quick test_customf_lazy;
  ]
