(* The SRP engine as a pure state machine: driven directly through its
   input functions, with a scripted lower layer instead of a network. *)

module Sim = Totem_engine.Sim
module Cpu = Totem_engine.Cpu
module Vtime = Totem_engine.Vtime
module Srp = Totem_srp.Srp
module Lower = Totem_srp.Lower
module Wire = Totem_srp.Wire
module Token = Totem_srp.Token
module Message = Totem_srp.Message
module Const = Totem_srp.Const
module Telemetry = Totem_engine.Telemetry
module J = Totem_chaos.Chaos_json

type script = {
  mutable data_out : Wire.packet list;  (* newest first *)
  mutable tokens_out : (int * Token.t) list;  (* (dst, token) *)
  mutable joins_out : Wire.join list;
  mutable commits_out : (int * Wire.commit) list;
  mutable delivered : Message.t list;
}

let make_node ?(me = 0) ?telemetry () =
  let sim = Sim.create () in
  let telemetry = Option.map (fun f -> f sim) telemetry in
  let cpu = Cpu.create sim ~name:"cpu" in
  let s =
    { data_out = []; tokens_out = []; joins_out = []; commits_out = [];
      delivered = [] }
  in
  let lower =
    {
      Lower.null with
      Lower.send_data = (fun p -> s.data_out <- p :: s.data_out);
      send_token = (fun ~dst tok -> s.tokens_out <- (dst, tok) :: s.tokens_out);
      send_join = (fun j -> s.joins_out <- j :: s.joins_out);
      send_commit = (fun ~dst cm -> s.commits_out <- (dst, cm) :: s.commits_out);
    }
  in
  let srp =
    Srp.create sim ~cpu ~const:Const.default ~me ~lower ?telemetry
      {
        Srp.on_deliver = (fun m -> s.delivered <- m :: s.delivered);
        on_ring_change = (fun ~ring_id:_ ~members:_ -> ());
      }
  in
  (sim, srp, s)

let run sim ms = Sim.run_until sim (Vtime.add (Sim.now sim) (Vtime.ms ms))

let test_bootstrap_requires_ring () =
  let _sim, srp, _ = make_node () in
  Alcotest.check_raises "no ring yet"
    (Invalid_argument "Srp.bootstrap_token: install_ring first") (fun () ->
      Srp.bootstrap_token srp)

let test_token_visit_sends_queued () =
  let sim, srp, s = make_node () in
  Srp.install_ring srp ~ring_id:1 ~members:[| 0; 1 |];
  Srp.submit srp ~size:500 ();
  Srp.submit srp ~size:500 ();
  Srp.bootstrap_token srp;
  run sim 5;
  (* Both 500-byte messages pack into one packet; the token leaves after
     the data, addressed to the successor, with the advanced seq. *)
  Alcotest.(check int) "one packet out" 1 (List.length s.data_out);
  (match s.tokens_out with
  | [ (dst, tok) ] ->
    Alcotest.(check int) "to the successor" 1 dst;
    Alcotest.(check int) "seq advanced" 1 tok.Token.seq;
    Alcotest.(check int) "hops counted" 1 tok.Token.hops
  | l -> Alcotest.failf "expected 1 token, got %d" (List.length l));
  Alcotest.(check int) "own messages self-delivered" 2 (List.length s.delivered)

(* The typed Token_tx event carries what the forward trace line used
   to: the successor it went to and the token's aru, in the JSONL
   export too. *)
let test_token_tx_names_successor () =
  let tl = ref None in
  let telemetry sim =
    let t = Telemetry.create sim in
    Telemetry.set_tracing t true;
    tl := Some t;
    t
  in
  let sim, srp, s = make_node ~me:2 ~telemetry () in
  let tl = Option.get !tl in
  Srp.install_ring srp ~ring_id:1 ~members:[| 0; 1; 2 |];
  Srp.submit srp ~size:500 ();
  Srp.bootstrap_token srp;
  run sim 5;
  let dst, tok =
    match s.tokens_out with
    | [ sent ] -> sent
    | l -> Alcotest.failf "expected 1 token, got %d" (List.length l)
  in
  Alcotest.(check int) "forwarded to the next member" 0 dst;
  match
    List.filter_map
      (fun (e : Telemetry.entry) ->
        match e.event with Telemetry.Token_tx _ -> Some e | _ -> None)
      (Telemetry.events tl)
  with
  | [ ({ event = Telemetry.Token_tx tx; _ } as e) ] ->
    Alcotest.(check int) "event dst is the successor" dst tx.dst;
    Alcotest.(check int) "event aru is the token's" tok.Token.aru tx.aru;
    let line = Telemetry.json_of_event e.time e.event in
    let v =
      match J.parse line with Ok v -> v | Error m -> Alcotest.failf "%s: %s" line m
    in
    Alcotest.(check string) "type" "token_tx" (J.get_str v "type" line);
    Alcotest.(check int) "t_ns" e.time (J.get_int v "t_ns" line);
    Alcotest.(check int) "dst field" dst (J.get_int v "dst" line);
    Alcotest.(check int) "aru field" tok.Token.aru (J.get_int v "aru" line)
  | l -> Alcotest.failf "expected 1 token_tx event, got %d" (List.length l)

let test_foreign_data_is_buffered_until_ordered () =
  let sim, srp, s = make_node () in
  Srp.install_ring srp ~ring_id:1 ~members:[| 0; 1 |];
  let packet ~seq =
    {
      Wire.ring_id = 1;
      seq;
      sender = 1;
      elements =
        [ { Wire.message = Message.make ~origin:1 ~app_seq:seq ~size:10 ();
            fragment = None } ];
    }
  in
  Srp.recv_data srp (packet ~seq:2);
  run sim 1;
  Alcotest.(check int) "out of order held" 0 (List.length s.delivered);
  Srp.recv_data srp (packet ~seq:1);
  run sim 1;
  Alcotest.(check int) "both released in order" 2 (List.length s.delivered);
  Alcotest.(check (list int)) "sequence order" [ 1; 2 ]
    (List.rev_map (fun m -> m.Message.app_seq) s.delivered)

let test_stale_ring_inputs_ignored () =
  let sim, srp, s = make_node () in
  Srp.install_ring srp ~ring_id:64 ~members:[| 0; 1 |];
  let stale_packet =
    { Wire.ring_id = 1; seq = 1; sender = 1;
      elements = [ { Wire.message = Message.make ~origin:1 ~app_seq:1 ~size:10 ();
                     fragment = None } ] }
  in
  Srp.recv_data srp stale_packet;
  Srp.token_arrived srp (Token.initial ~ring:[| 0; 1 |] ~ring_id:1);
  run sim 1;
  Alcotest.(check int) "stale data dropped" 0 (List.length s.delivered);
  Alcotest.(check int) "stale token not forwarded" 0 (List.length s.tokens_out)

let test_token_loss_starts_gather () =
  let sim, srp, s = make_node () in
  Srp.install_ring srp ~ring_id:1 ~members:[| 0; 1 |];
  (* No token ever arrives: after token_loss_timeout the node starts
     gathering and broadcasts Joins. *)
  run sim 250;
  Alcotest.(check bool) "gathering" true (not (Srp.is_operational srp));
  Alcotest.(check bool) "joins broadcast" true (List.length s.joins_out >= 1);
  let j = List.hd s.joins_out in
  Alcotest.(check int) "join names us" 0 j.Wire.sender;
  Alcotest.(check bool) "join carries our ring knowledge" true
    (j.Wire.max_ring_id >= 1)

let test_crash_is_silent () =
  let sim, srp, s = make_node () in
  Srp.install_ring srp ~ring_id:1 ~members:[| 0; 1 |];
  Srp.crash srp;
  Srp.submit srp ~size:100 ();
  Srp.token_arrived srp (Token.initial ~ring:[| 0; 1 |] ~ring_id:1);
  run sim 500;
  Alcotest.(check bool) "crashed" true (Srp.is_crashed srp);
  Alcotest.(check int) "no sends" 0 (List.length s.data_out);
  Alcotest.(check int) "no tokens" 0 (List.length s.tokens_out);
  Alcotest.(check int) "no joins either" 0 (List.length s.joins_out)

let test_flow_cap_per_visit () =
  let sim, srp, s = make_node () in
  Srp.install_ring srp ~ring_id:1 ~members:[| 0; 1 |];
  (* Queue far more full-frame messages than one visit's allowance. *)
  for _ = 1 to 100 do
    Srp.submit srp ~size:1400 ()
  done;
  Srp.bootstrap_token srp;
  run sim 5;
  Alcotest.(check int) "at most the per-visit packet cap"
    Const.default.Const.max_messages_per_token (List.length s.data_out);
  (* 25 went out, one sits in the element cursor awaiting the next
     visit, 74 remain queued. *)
  Alcotest.(check int) "the rest stays queued"
    (100 - Const.default.Const.max_messages_per_token - 1)
    (Srp.send_queue_length srp)

let test_commit_round1_forwarding () =
  let _sim, srp, s = make_node ~me:1 () in
  Srp.install_ring srp ~ring_id:1 ~members:[| 0; 1; 2 |];
  (* A round-1 commit for a newer ring arrives (we are a member): we
     append our info and pass it to the next proposed member. *)
  let cm =
    { Wire.cm_ring_id = 64; cm_ring = [| 0; 1; 2 |]; cm_round = 1;
      cm_info = [ { Wire.mi_node = 0; mi_old_ring = 1; mi_aru = 0 } ] }
  in
  Srp.recv_commit srp cm;
  (match s.commits_out with
  | [ (dst, cm') ] ->
    Alcotest.(check int) "forwarded to the next member" 2 dst;
    Alcotest.(check int) "still round 1" 1 cm'.Wire.cm_round;
    Alcotest.(check bool) "our info appended" true
      (List.exists (fun (i : Wire.member_info) -> i.mi_node = 1) cm'.Wire.cm_info);
    Alcotest.(check bool) "previous info kept" true
      (List.exists (fun (i : Wire.member_info) -> i.mi_node = 0) cm'.Wire.cm_info)
  | l -> Alcotest.failf "expected 1 commit out, got %d" (List.length l));
  Alcotest.(check bool) "joined the transition" true
    (not (Srp.is_operational srp));
  Alcotest.(check int) "still on the old ring until recovery" 1
    (Srp.current_ring_id srp)

let test_commit_round2_starts_recovery () =
  let _sim, srp, s = make_node ~me:1 () in
  Srp.install_ring srp ~ring_id:1 ~members:[| 0; 1; 2 |];
  (* Everyone is level (aru 0): round 2 completes recovery instantly and
     installs the new ring. *)
  let info old_ring n = { Wire.mi_node = n; mi_old_ring = old_ring; mi_aru = 0 } in
  let cm =
    { Wire.cm_ring_id = 64; cm_ring = [| 0; 1; 2 |]; cm_round = 2;
      cm_info = [ info 1 0; info 1 1; info 1 2 ] }
  in
  Srp.recv_commit srp cm;
  Alcotest.(check int) "new ring installed" 64 (Srp.current_ring_id srp);
  Alcotest.(check bool) "operational" true (Srp.is_operational srp);
  (match s.commits_out with
  | [ (dst, cm') ] ->
    Alcotest.(check int) "round 2 passed on" 2 dst;
    Alcotest.(check int) "round preserved" 2 cm'.Wire.cm_round
  | l -> Alcotest.failf "expected 1 commit out, got %d" (List.length l))

let tests =
  [
    Alcotest.test_case "bootstrap requires a ring" `Quick test_bootstrap_requires_ring;
    Alcotest.test_case "token visit broadcasts the queue" `Quick
      test_token_visit_sends_queued;
    Alcotest.test_case "out-of-order data buffered" `Quick
      test_foreign_data_is_buffered_until_ordered;
    Alcotest.test_case "stale-ring inputs ignored" `Quick test_stale_ring_inputs_ignored;
    Alcotest.test_case "token loss starts gathering" `Quick
      test_token_loss_starts_gather;
    Alcotest.test_case "a crashed node is silent" `Quick test_crash_is_silent;
    Alcotest.test_case "flow control caps one visit" `Quick test_flow_cap_per_visit;
    Alcotest.test_case "commit round 1 forwarded with our info" `Quick
      test_commit_round1_forwarding;
    Alcotest.test_case "commit round 2 starts recovery" `Quick
      test_commit_round2_starts_recovery;
    Alcotest.test_case "token_tx names the successor and aru" `Quick
      test_token_tx_names_successor;
  ]
