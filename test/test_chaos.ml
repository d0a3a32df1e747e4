(* The chaos engine: DSL combinators, campaign serialization, the
   violation -> shrink -> replay round trip, and replay determinism. *)

module Vtime = Totem_engine.Vtime
module Telemetry = Totem_engine.Telemetry
module Campaign = Totem_chaos.Campaign
module Invariant = Totem_chaos.Invariant
module Runner = Totem_chaos.Runner

(* --- DSL ------------------------------------------------------------- *)

let test_flap_duty_cycle () =
  let steps =
    Campaign.flap ~net:0 ~period:(Vtime.ms 100) ~duty:0.3 ~from_:Vtime.zero
      ~until:(Vtime.ms 300) ()
  in
  let expected =
    [
      (Vtime.ms 0, Campaign.Fail_net 0);
      (Vtime.ms 30, Campaign.Heal_net 0);
      (Vtime.ms 100, Campaign.Fail_net 0);
      (Vtime.ms 130, Campaign.Heal_net 0);
      (Vtime.ms 200, Campaign.Fail_net 0);
      (Vtime.ms 230, Campaign.Heal_net 0);
    ]
  in
  Alcotest.(check int) "step count" (List.length expected) (List.length steps);
  List.iter2
    (fun (at, op) s ->
      Alcotest.(check bool)
        (Format.asprintf "step %a" Campaign.pp_op op)
        true
        (s.Campaign.at = at && s.Campaign.op = op))
    expected steps

let test_rolling_partition () =
  let steps =
    Campaign.rolling_partition ~net:1 ~nodes:[ 0; 1; 2 ] ~dwell:(Vtime.ms 50)
      ~from_:(Vtime.ms 100) ~rounds:3
  in
  let expected =
    [
      (Vtime.ms 100, Campaign.Partition (1, [ 0 ], [ 1 ]));
      (Vtime.ms 150, Campaign.Unpartition (1, [ 0 ], [ 1 ]));
      (Vtime.ms 150, Campaign.Partition (1, [ 1 ], [ 2 ]));
      (Vtime.ms 200, Campaign.Unpartition (1, [ 1 ], [ 2 ]));
      (Vtime.ms 200, Campaign.Partition (1, [ 2 ], [ 0 ]));
      (Vtime.ms 250, Campaign.Unpartition (1, [ 2 ], [ 0 ]));
    ]
  in
  Alcotest.(check int) "step count" 6 (List.length steps);
  List.iter2
    (fun (at, op) s ->
      Alcotest.(check bool)
        (Format.asprintf "%a" Campaign.pp_op op)
        true
        (s.Campaign.at = at && s.Campaign.op = op))
    expected steps

let test_loss_ramp () =
  let steps =
    Campaign.loss_ramp ~net:0 ~from_:(Vtime.ms 100) ~until:(Vtime.ms 500)
      ~stages:4 ~peak:0.4
  in
  Alcotest.(check int) "stages + clear" 5 (List.length steps);
  let last = List.nth steps 4 in
  Alcotest.(check bool) "cleared at until" true
    (last.Campaign.op = Campaign.Set_loss (0, 0.0) && last.Campaign.at = Vtime.ms 500);
  (match (List.nth steps 3).Campaign.op with
  | Campaign.Set_loss (0, p) ->
    Alcotest.(check (float 1e-9)) "peak reached" 0.4 p
  | _ -> Alcotest.fail "expected Set_loss")

let test_tolerated () =
  let mk steps = Campaign.make ~num_nets:2 steps in
  Alcotest.(check bool) "no faults tolerated" true (Campaign.tolerated (mk []));
  Alcotest.(check bool) "one net down tolerated" true
    (Campaign.tolerated (mk [ { Campaign.at = Vtime.ms 10; op = Campaign.Fail_net 0 } ]));
  Alcotest.(check bool) "both nets down not tolerated" false
    (Campaign.tolerated
       (mk
          [
            { Campaign.at = Vtime.ms 10; op = Campaign.Fail_net 0 };
            { Campaign.at = Vtime.ms 20; op = Campaign.Fail_net 1 };
          ]));
  Alcotest.(check bool) "heal restores tolerance" true
    (Campaign.tolerated
       (mk
          [
            { Campaign.at = Vtime.ms 10; op = Campaign.Fail_net 0 };
            { Campaign.at = Vtime.ms 20; op = Campaign.Heal_net 0 };
            { Campaign.at = Vtime.ms 30; op = Campaign.Fail_net 1 };
          ]));
  Alcotest.(check bool) "loss everywhere not tolerated" false
    (Campaign.tolerated
       (mk
          [
            { Campaign.at = Vtime.ms 10; op = Campaign.Set_loss (0, 0.1) };
            { Campaign.at = Vtime.ms 20; op = Campaign.Set_loss (1, 0.1) };
          ]));
  Alcotest.(check bool) "crash not tolerated" false
    (Campaign.tolerated (mk [ { Campaign.at = Vtime.ms 10; op = Campaign.Crash 0 } ]))

let test_touched_nets () =
  let c =
    Campaign.make ~num_nets:3
      [
        { Campaign.at = Vtime.ms 10; op = Campaign.Set_loss (0, 0.03) };
        { Campaign.at = Vtime.ms 20; op = Campaign.Block_send (1, 1) };
      ]
  in
  let strict = Campaign.touched_nets c in
  Alcotest.(check bool) "loss touches under strict" true strict.(0);
  let lenient = Campaign.touched_nets ~sporadic_loss_max:0.05 c in
  Alcotest.(check bool) "sporadic loss stays virgin" false lenient.(0);
  Alcotest.(check bool) "hard fault always touches" true lenient.(1);
  Alcotest.(check bool) "untouched net virgin" false lenient.(2)

(* --- serialization --------------------------------------------------- *)

let check_round_trip label c =
  let text = Totem_chaos.Chaos_json.to_string (Campaign.to_json c) in
  match Totem_chaos.Chaos_json.parse text with
  | Error m -> Alcotest.failf "%s: reparse failed: %s" label m
  | Ok v ->
    let c' = Campaign.of_json v "round-trip" in
    Alcotest.(check bool) (Printf.sprintf "%s round-trips" label) true (c = c')

let test_json_round_trip () =
  List.iter
    (fun seed ->
      check_round_trip
        (Printf.sprintf "seed %d" seed)
        (Campaign.random ~seed ()))
    [ 1; 2; 3; 7; 11 ]

let test_json_round_trip_gray () =
  (* The gray op draw plus reinstatement flag survive serialization. *)
  List.iter
    (fun seed ->
      check_round_trip
        (Printf.sprintf "gray seed %d" seed)
        (Campaign.random ~gray:true ~seed ()))
    [ 1; 2; 3; 7; 11 ];
  check_round_trip "every gray op"
    (Campaign.make ~reinstate:true
       (List.map
          (fun (at, op) -> { Campaign.at; op })
          [
            (Vtime.ms 10, Campaign.Set_burst_loss (0, 0.9, 0.1));
            (Vtime.ms 20, Campaign.Set_delay_factor (0, 4.0, 0.2));
            (Vtime.ms 30, Campaign.Set_dir_loss (0, 0, 1, 0.8));
            (Vtime.ms 40, Campaign.Set_duplicate (1, 0.3));
            (Vtime.ms 50, Campaign.Set_reorder (1, 0.15));
            (Vtime.ms 60, Campaign.Set_burst_loss (0, 0.0, 1.0));
          ]))

(* --- violation -> shrink -> replay ----------------------------------- *)

(* A deliberately mis-thresholded monitor: no protocol can condemn a
   failed network within 1 ms, so requirement A6 "fires" on any campaign
   that takes a network down for longer than that. *)
let broken_monitor =
  { Invariant.default with Invariant.condemn_within = Some (Vtime.ms 1) }

let find_violating_campaign () =
  (* Seed 1's random campaign keeps network 0 down long enough. *)
  let campaign = Campaign.random ~seed:1 () in
  match (Runner.run ~monitor:broken_monitor campaign).Runner.violations with
  | v :: _ -> (campaign, v)
  | [] -> Alcotest.fail "expected the mis-thresholded monitor to fire"

let test_shrink_round_trip () =
  let campaign, violation = find_violating_campaign () in
  Alcotest.(check string)
    "A6 fired" Invariant.inv_detection violation.Invariant.invariant;
  let s = Runner.shrink ~monitor:broken_monitor campaign violation in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to %d steps (<= 8)" s.Runner.minimized_steps)
    true
    (s.Runner.minimized_steps <= 8
    && s.Runner.minimized_steps < s.Runner.original_steps);
  (* The minimized campaign still violates the same invariant... *)
  let r = Runner.run ~monitor:broken_monitor s.Runner.minimized in
  let v' =
    match r.Runner.violations with
    | v :: _ -> v
    | [] -> Alcotest.fail "minimized campaign no longer violates"
  in
  Alcotest.(check string)
    "same invariant" violation.Invariant.invariant v'.Invariant.invariant;
  (* ...and round-trips through a .chaos.json file into a bit-for-bit
     reproduction. *)
  let path = Filename.temp_file "totem" ".chaos.json" in
  Runner.write_counterexample ~path
    {
      Runner.cx_campaign = s.Runner.minimized;
      cx_monitor = broken_monitor;
      cx_violation = Some v';
      cx_shrunk = true;
      cx_history = Runner.history_json r;
    };
  Alcotest.(check bool) "flight recorder captured history" true
    (Runner.history r <> []);
  let outcome = Runner.replay_file ~path in
  Sys.remove path;
  match outcome with
  | Ok (Runner.Reproduced _) -> ()
  | Ok (Runner.Diverged (_, why)) -> Alcotest.failf "replay diverged: %s" why
  | Ok (Runner.Clean_replay _) -> Alcotest.fail "replay came back clean"
  | Error m -> Alcotest.failf "replay failed: %s" m

(* A counterexample written before v3: its history has the per-token
   forward line and a token_tx without dst/aru, which no replay emits
   any more. The violation still reproduces; the history is not
   compared. The same file labelled v3 must diverge on that history. *)
let v2_counterexample schema =
  Printf.sprintf
    {|{
  "schema": "%s",
  "shrunk": true,
  "campaign": {
    "nodes": 2, "nets": 2, "style": "active", "seed": 5,
    "duration_ns": 50000000, "quiesce_ns": 50000000,
    "wire_bytes": false, "reinstate": false,
    "traffic": { "kind": "bursts", "bursts": [] },
    "steps": []
  },
  "monitor": {
    "agreement": true, "membership": true, "virgin_net": true,
    "sporadic_loss_max": 0, "lag_limit": null, "condemn_within_ns": null,
    "token_gap_ns": 0, "check_every_ns": 25000000, "flap_limit": null,
    "recondemn_within_ns": null
  },
  "violation": {
    "invariant": "L-token-liveness",
    "at_ns": 25000000,
    "detail": "no token reception anywhere for 34.807us (bound 0ns)"
  },
  "history": [
    { "node": 0, "events": [
      { "t_ns": 19914746, "type": "token_tx", "node": 0, "ring_id": 1,
        "seq": 0, "rotation": 58, "hops": 117, "rtr_len": 0 } ] },
    { "node": -1, "events": [
      { "t_ns": 19914746, "type": "custom", "component": "srp0",
        "message": "forward token(ring=1 rot=58 hop=117 seq=0 aru=0 fcc=0 rtr=[]) to N1" } ] }
  ]
}
|}
    schema

let test_v2_replays_without_history () =
  let replay schema =
    let path = Filename.temp_file "totem" ".chaos.json" in
    let oc = open_out path in
    output_string oc (v2_counterexample schema);
    close_out oc;
    let cx = Runner.read_counterexample ~path in
    let outcome = Runner.replay_file ~path in
    Sys.remove path;
    (cx, outcome)
  in
  (match replay "totem-chaos/v2" with
  | Ok cx, Ok (Runner.Reproduced _) ->
    Alcotest.(check int) "v2 history dropped on read" 0
      (List.length cx.Runner.cx_history)
  | _, Ok (Runner.Diverged (_, why)) -> Alcotest.failf "v2 replay diverged: %s" why
  | _, Ok (Runner.Clean_replay _) -> Alcotest.fail "v2 replay came back clean"
  | Error m, _ | _, Error m -> Alcotest.failf "v2 replay failed: %s" m);
  match replay Runner.schema with
  | _, Ok (Runner.Diverged (_, why)) ->
    Alcotest.(check string) "v3 compares the history"
      "violation reproduced, but the event history diverged" why
  | _ -> Alcotest.fail "a stale history labelled v3 must diverge"

let test_liveness_misthreshold_shrinks_to_nothing () =
  (* token_gap = 0 condemns any instant without a token reception: the
     fault schedule is irrelevant, so ddmin must strip it entirely. *)
  let monitor =
    { Invariant.default with Invariant.token_gap = Some Vtime.zero }
  in
  let campaign = Campaign.random ~seed:3 () in
  match (Runner.run ~monitor campaign).Runner.violations with
  | [] -> Alcotest.fail "zero token gap must fire"
  | v :: _ ->
    Alcotest.(check string) "liveness" Invariant.inv_liveness v.Invariant.invariant;
    let s = Runner.shrink ~monitor campaign v in
    Alcotest.(check int) "schedule shrinks away" 0 s.Runner.minimized_steps

(* --- determinism ------------------------------------------------------ *)

let dump_run campaign monitor =
  let buf = Buffer.create 4096 in
  let sink time event =
    Buffer.add_string buf (Telemetry.json_of_event time event);
    Buffer.add_char buf '\n'
  in
  let r = Runner.run ~monitor ~sink campaign in
  (r, Buffer.contents buf)

let test_replay_determinism () =
  let campaign = Campaign.random ~seed:2 () in
  let r1, dump1 = dump_run campaign Invariant.default in
  let r2, dump2 = dump_run campaign Invariant.default in
  Alcotest.(check int) "same event count" r1.Runner.events r2.Runner.events;
  Alcotest.(check int) "same deliveries" r1.Runner.delivered r2.Runner.delivered;
  Alcotest.(check bool) "same violations" true
    (r1.Runner.violations = r2.Runner.violations);
  Alcotest.(check bool)
    (Printf.sprintf "identical telemetry dumps (%d bytes)" (String.length dump1))
    true (String.equal dump1 dump2);
  Alcotest.(check bool) "dump is non-trivial" true (String.length dump1 > 10_000)

let test_stock_campaign_passes () =
  let campaign = Campaign.random ~seed:4 () in
  let monitor =
    {
      Invariant.default with
      Invariant.condemn_within = Some (Vtime.ms 1500);
      lag_limit = Some 100;
    }
  in
  let r = Runner.run ~monitor campaign in
  (match r.Runner.violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "stock campaign violated %a" Invariant.pp_violation v);
  match r.Runner.submitted with
  | Some n -> Alcotest.(check int) "all delivered" n r.Runner.delivered
  | None -> Alcotest.fail "burst campaign must know its submission count"

let tests =
  [
    Alcotest.test_case "flap emits the duty cycle" `Quick test_flap_duty_cycle;
    Alcotest.test_case "rolling partition rotates pairs" `Quick test_rolling_partition;
    Alcotest.test_case "loss ramp climbs then clears" `Quick test_loss_ramp;
    Alcotest.test_case "tolerated matches the fault hypothesis" `Quick test_tolerated;
    Alcotest.test_case "touched nets vs sporadic loss" `Quick test_touched_nets;
    Alcotest.test_case "campaign JSON round trip" `Quick test_json_round_trip;
    Alcotest.test_case "campaign JSON round trip: gray + reinstate" `Quick
      test_json_round_trip_gray;
    Alcotest.test_case "violation -> shrink -> replay round trip" `Slow
      test_shrink_round_trip;
    Alcotest.test_case "liveness mis-threshold shrinks to empty" `Slow
      test_liveness_misthreshold_shrinks_to_nothing;
    Alcotest.test_case "replay determinism (identical dumps)" `Slow
      test_replay_determinism;
    Alcotest.test_case "stock campaign passes armed monitors" `Slow
      test_stock_campaign_passes;
    Alcotest.test_case "v2 counterexample replays without its history" `Quick
      test_v2_replays_without_history;
  ]
