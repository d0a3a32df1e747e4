(* The bounded exhaustive explorer: path accounting (explored + pruned
   = A^depth), fingerprint determinism under replay, symmetric-prefix
   pruning, the mutation canary (a deliberately weakened protocol must
   be caught within depth 4), and ddmin on explorer-found paths. *)

module Vtime = Totem_engine.Vtime
module Campaign = Totem_chaos.Campaign
module Invariant = Totem_chaos.Invariant
module Runner = Totem_chaos.Runner
module Explorer = Totem_chaos.Explorer
module Cluster = Totem_cluster.Cluster
module Rrp = Totem_rrp.Rrp
module Active = Totem_rrp.Active

let gap = Vtime.ms 5

let base ?(style = Totem_rrp.Style.Active) ?(depth = 2) ?alphabet ?monitor
    ?(hold = Vtime.ms 40) () =
  Explorer.make ~num_nodes:3 ~num_nets:2 ~style ~seed:42 ~wire:true ~depth
    ?alphabet ?monitor ~gap ~settle:(Vtime.ms 40) ~hold
    ~quiesce:(Vtime.ms 300) ()

let ops = Array.of_list (Explorer.default_alphabet ~num_nets:2)

(* --- path accounting -------------------------------------------------- *)

let test_single_op_alphabet () =
  let cfg = base ~depth:3 ~alphabet:[ Campaign.Fail_net 0 ] () in
  let o = Explorer.explore cfg in
  let s = o.Explorer.o_stats in
  Alcotest.(check int) "total leaves" 1 s.Explorer.total_leaves;
  Alcotest.(check int)
    "explored + pruned = 1" 1
    (s.Explorer.leaves_explored + s.Explorer.leaves_pruned);
  Alcotest.(check bool) "no violation" true (o.Explorer.o_found = None)

let qcheck_path_accounting =
  QCheck.Test.make ~name:"explored + pruned = alphabet^depth" ~count:6
    QCheck.(pair (int_range 1 2) (int_range 1 3))
    (fun (depth, asize) ->
      let alphabet = Array.to_list (Array.sub ops 0 asize) in
      let cfg = base ~depth ~alphabet () in
      let o = Explorer.explore cfg in
      let s = o.Explorer.o_stats in
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      o.Explorer.o_found = None
      && s.Explorer.total_leaves = pow asize depth
      && s.Explorer.leaves_explored + s.Explorer.leaves_pruned
         = s.Explorer.total_leaves)

(* --- replay determinism ----------------------------------------------- *)

let qcheck_path_replays_byte_for_byte =
  QCheck.Test.make ~name:"explored path replays byte-for-byte" ~count:5
    QCheck.(list_of_size (QCheck.Gen.return 2) (int_range 0 (Array.length ops - 1)))
    (fun picks ->
      let path = List.map (fun i -> ops.(i)) picks in
      let cfg = base ~depth:(List.length path) () in
      let r1, fp1 = Explorer.path_fingerprints cfg ~gap path in
      let r2, fp2 = Explorer.path_fingerprints cfg ~gap path in
      fp1 = fp2
      && r1.Runner.events = r2.Runner.events
      && r1.Runner.delivered = r2.Runner.delivered
      && r1.Runner.finished_at = r2.Runner.finished_at
      && Runner.history r1 = Runner.history r2)

let test_fingerprints_match_across_domains () =
  let cfg = base ~depth:2 () in
  let path = [ Campaign.Fail_net 0; Campaign.Heal_net 0 ] in
  let r1, fp1 = Explorer.path_fingerprints cfg ~gap path in
  let cfg2 = { cfg with Explorer.sim_domains = 2 } in
  let r2, fp2 = Explorer.path_fingerprints cfg2 ~gap path in
  Alcotest.(check bool) "fingerprints identical" true (fp1 = fp2);
  Alcotest.(check int) "deliveries identical" r1.Runner.delivered
    r2.Runner.delivered

(* --- symmetric-prefix pruning ----------------------------------------- *)

let test_pruning_collapses_no_ops () =
  (* Two ops that are both no-ops on a clean cluster: every interleaving
     reaches the same state, so exactly one leaf end-game should run. *)
  let cfg =
    base ~depth:2
      ~alphabet:[ Campaign.Heal_net 0; Campaign.Set_corrupt (0, 0.0) ]
      ()
  in
  let o = Explorer.explore cfg in
  let s = o.Explorer.o_stats in
  Alcotest.(check int) "one leaf explored" 1 s.Explorer.leaves_explored;
  Alcotest.(check int) "three leaves pruned" 3 s.Explorer.leaves_pruned;
  Alcotest.(check int) "two distinct states" 2 s.Explorer.distinct_states

let test_calibration_deterministic () =
  let cfg = { (base ()) with Explorer.gap = None } in
  let g1 = Explorer.calibrated_gap cfg in
  let g2 = Explorer.calibrated_gap cfg in
  Alcotest.(check bool) "calibration repeatable" true (g1 = g2);
  Alcotest.(check bool) "floored at 5 ms" true (Vtime.( >= ) g1 (Vtime.ms 5))

(* --- mutation canary -------------------------------------------------- *)

(* Weaken detection: every node swallows all problemCounter increments,
   so a really-failed network is never condemned. With the A6 bound
   armed, the explorer must find the violation within depth 4 — the
   guard against an explorer that silently explores nothing. *)
let suppress cluster =
  for node = 0 to Cluster.num_nodes cluster - 1 do
    match Rrp.as_active (Cluster.rrp (Cluster.node cluster node)) with
    | Some a -> Active.suppress_problem_increments a max_int
    | None -> ()
  done

(* Condemnation of a dead network takes ~65 ms of simulated downtime
   (ten problem-counter increments at token-loss pace), so 120 ms is a
   bound the healthy protocol meets with margin while the suppressed
   one can never meet. *)
let canary_cfg () =
  base ~depth:4
    ~alphabet:[ Campaign.Fail_net 0; Campaign.Heal_net 0 ]
    ~monitor:
      { Invariant.default with Invariant.condemn_within = Some (Vtime.ms 120) }
    ~hold:(Vtime.ms 200) ()

let canary_found = lazy (Explorer.explore ~prepare:suppress (canary_cfg ()))

let test_canary_detected () =
  let o = Lazy.force canary_found in
  match o.Explorer.o_found with
  | None -> Alcotest.fail "explorer missed the seeded A6 weakening"
  | Some f ->
    Alcotest.(check bool) "within depth 4" true (List.length f.Explorer.f_path <= 4);
    (match f.Explorer.f_result.Runner.violations with
    | v :: _ ->
      Alcotest.(check string)
        "A6 fired" Invariant.inv_detection v.Invariant.invariant
    | [] -> Alcotest.fail "leaf-form re-run did not reproduce the violation")

let test_canary_needs_the_mutation () =
  (* The same configuration without the hook must explore clean — the
     canary measures the mutation, not a monitor misconfiguration. *)
  let o = Explorer.explore (canary_cfg ()) in
  Alcotest.(check bool) "healthy protocol passes" true (o.Explorer.o_found = None)

(* --- ddmin on explorer-produced paths --------------------------------- *)

let is_subsequence smaller larger =
  let rec go s l =
    match (s, l) with
    | [], _ -> true
    | _, [] -> false
    | x :: s', y :: l' -> if x = y then go s' l' else go s l'
  in
  go smaller larger

let test_shrink_explorer_counterexample () =
  let o = Lazy.force canary_found in
  let f = match o.Explorer.o_found with Some f -> f | None -> Alcotest.fail "no counterexample" in
  let cfg = canary_cfg () in
  let monitor = cfg.Explorer.monitor in
  let violation = List.hd f.Explorer.f_result.Runner.violations in
  let report =
    Runner.shrink ~monitor ~prepare:suppress f.Explorer.f_campaign violation
  in
  let minimized = report.Runner.minimized in
  (* still violates the same invariant *)
  let r = Runner.run ~monitor ~prepare:suppress minimized in
  (match r.Runner.violations with
  | v :: _ ->
    Alcotest.(check string)
      "same invariant" violation.Invariant.invariant v.Invariant.invariant
  | [] -> Alcotest.fail "minimized campaign no longer violates");
  (* subsequence of the original schedule *)
  Alcotest.(check bool)
    "subsequence of original" true
    (is_subsequence minimized.Campaign.steps
       f.Explorer.f_campaign.Campaign.steps);
  (* locally minimal: removing any single op makes it pass *)
  List.iteri
    (fun i _ ->
      let steps =
        List.filteri (fun j _ -> j <> i) minimized.Campaign.steps
      in
      let r =
        Runner.run ~monitor ~prepare:suppress
          { minimized with Campaign.steps }
      in
      let same_again =
        match r.Runner.violations with
        | v :: _ -> v.Invariant.invariant = violation.Invariant.invariant
        | [] -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "dropping step %d breaks reproduction" i)
        false same_again)
    minimized.Campaign.steps;
  (* and the shrunk schedule round-trips as a replayable .chaos.json *)
  let cx = Explorer.to_counterexample ~prepare:suppress ~shrunk:true cfg minimized in
  Alcotest.(check bool) "counterexample records a violation" true (cx.Runner.cx_violation <> None);
  let path = Filename.temp_file "mc-canary" ".chaos.json" in
  Runner.write_counterexample ~path cx;
  (match Runner.read_counterexample ~path with
  | Error m -> Alcotest.fail m
  | Ok cx' -> (
    match Runner.replay ~prepare:suppress cx' with
    | Runner.Reproduced _ -> ()
    | Runner.Clean_replay _ -> Alcotest.fail "replay came back clean"
    | Runner.Diverged (_, why) -> Alcotest.fail ("replay diverged: " ^ why)));
  Sys.remove path

(* --- arbitrary-state mode --------------------------------------------- *)

let test_stabilize_recovers () =
  let rep = Explorer.stabilize (base ~depth:2 ()) ~points:2 in
  Alcotest.(check int) "two perturbations applied" 2
    (List.length rep.Explorer.s_perturbations);
  Alcotest.(check bool) "stabilized" true (Explorer.stabilized rep)

let tests =
  [
    Alcotest.test_case "1-op alphabet enumerates one path" `Quick
      test_single_op_alphabet;
    QCheck_alcotest.to_alcotest qcheck_path_accounting;
    QCheck_alcotest.to_alcotest qcheck_path_replays_byte_for_byte;
    Alcotest.test_case "fingerprints identical across sim domains" `Quick
      test_fingerprints_match_across_domains;
    Alcotest.test_case "symmetric no-op prefixes are pruned" `Quick
      test_pruning_collapses_no_ops;
    Alcotest.test_case "gap calibration is deterministic" `Quick
      test_calibration_deterministic;
    Alcotest.test_case "mutation canary: weakened A6 is found" `Quick
      test_canary_detected;
    Alcotest.test_case "mutation canary: healthy protocol passes" `Quick
      test_canary_needs_the_mutation;
    Alcotest.test_case "ddmin shrinks explorer counterexamples" `Quick
      test_shrink_explorer_counterexample;
    Alcotest.test_case "arbitrary-state perturbations stabilize" `Quick
      test_stabilize_recovers;
  ]
