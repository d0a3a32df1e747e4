(* The parallel simulator core (Partition / Exchange / Parallel) and
   its contracts: the conservative-lookahead bound, the canonical
   (time, source, seq) merge order, bitwise determinism across worker
   counts, and faithful exception propagation from worker domains. *)

open Totem_engine
module Campaign = Totem_chaos.Campaign
module Runner = Totem_chaos.Runner

(* --- lookahead bound (qcheck) --------------------------------------- *)

(* A synthetic exchange over random lookaheads and random
   cross-partition traffic, including reactive reply chains: every
   delivery is scheduled at send + lookahead by the barrier hook, and
   [Sim.schedule_at] raises if that ever lands in the destination
   partition's past — so the property "no exception and every hop
   delivered" is exactly "the lookahead bound was never violated". *)
let qcheck_lookahead_bound =
  QCheck.Test.make ~name:"exchange: lookahead bound never violated" ~count:60
    QCheck.(
      triple (int_range 1 500) (int_range 2 4)
        (list_of_size (Gen.int_range 0 30)
           (triple (int_range 0 3) (int_range 0 5000) (int_range 0 5))))
    (fun (lookahead, nparts, sends) ->
      let global = Sim.create () in
      let parts = Array.init nparts (fun i -> Sim.create ~seed:(7 + i) ()) in
      let ex = Exchange.create ~lookahead ~global ~parts () in
      let outbox = ref [] in
      let delivered = ref 0 in
      let expected =
        List.fold_left (fun acc (_, _, hops) -> acc + hops + 1) 0 sends
      in
      let rec send ~src ~hops =
        outbox := (Sim.now parts.(src), (src + 1) mod nparts, hops) :: !outbox
      and deliver dst hops () =
        incr delivered;
        if hops > 0 then send ~src:dst ~hops:(hops - 1)
      in
      Exchange.add_barrier_hook ex
        ~next:(fun () ->
          List.fold_left (fun a (t, _, _) -> Vtime.min a t) Vtime.never !outbox)
        (fun _h1 ->
          let items = List.rev !outbox in
          outbox := [];
          List.iter
            (fun (t, dst, hops) ->
              ignore
                (Sim.schedule_at parts.(dst) ~time:(t + lookahead)
                   (deliver dst hops)))
            items);
      List.iter
        (fun (src, at, hops) ->
          let src = src mod nparts in
          ignore
            (Sim.schedule_at parts.(src) ~time:at (fun () -> send ~src ~hops)))
        sends;
      (* max chain: 5000 + 7 hops x 500 lookahead < 10_000 *)
      Exchange.run_until ex 10_000;
      !delivered = expected && Exchange.horizon ex = 10_000)

(* --- canonical merge order (qcheck) ---------------------------------- *)

(* Random emissions across buffered child hubs must drain in strictly
   increasing (time, source, per-source seq) order — a total order, so
   the drained stream is unique whatever the emission interleaving
   across partitions was. *)
let qcheck_canonical_merge_total_order =
  QCheck.Test.make ~name:"telemetry drain: (time, src, seq) is a total order"
    ~count:100
    QCheck.(
      list_of_size (Gen.int_range 0 60) (pair (int_range 0 2) (int_range 0 50)))
    (fun emissions ->
      let gsim = Sim.create () in
      let root = Telemetry.create gsim in
      Telemetry.set_buffering root true;
      let sims = Array.init 3 (fun i -> Sim.create ~seed:(11 + i) ()) in
      let children =
        Array.init 3 (fun i -> Telemetry.create_child root ~source:i sims.(i))
      in
      let next_idx = Array.make 3 0 in
      List.iter
        (fun (src, at) ->
          ignore
            (Sim.schedule_at sims.(src) ~time:at (fun () ->
                 let idx = next_idx.(src) in
                 next_idx.(src) <- idx + 1;
                 Telemetry.emit children.(src)
                   (Telemetry.Msg_tx { node = src; seq = idx; bytes = 0 }))))
        emissions;
      Array.iter (fun s -> Sim.run_until s 100) sims;
      let seen = ref [] in
      Telemetry.set_sink root (fun time ev ->
          match ev with
          | Telemetry.Msg_tx { node; seq; _ } ->
            seen := (time, node, seq) :: !seen
          | _ -> ());
      Telemetry.drain root ~children ~set_clock:(Sim.unsafe_set_clock gsim);
      let keys = List.rev !seen in
      let rec strictly_sorted = function
        | a :: (b :: _ as rest) -> a < b && strictly_sorted rest
        | _ -> true
      in
      List.length keys = List.length emissions && strictly_sorted keys)

(* --- determinism across worker counts -------------------------------- *)

(* One fixed chaos schedule per replication style, byte-wire mode on:
   the full result fingerprint (violations, deliveries, finish time,
   events processed, flight-recorder history) must be bitwise-identical
   between sim_domains = 1 and sim_domains = 8. *)
let chaos_campaign style =
  Campaign.make ~num_nodes:4 ~num_nets:2 ~style ~seed:97
    ~duration:(Vtime.ms 400) ~quiesce:(Vtime.ms 1200)
    ~traffic:(Campaign.Saturate 512) ~wire:true
    [
      { Campaign.at = Vtime.ms 40; op = Campaign.Set_loss (0, 0.05) };
      { at = Vtime.ms 90; op = Campaign.Block_send (1, 0) };
      { at = Vtime.ms 140; op = Campaign.Set_corrupt (1, 0.02) };
      { at = Vtime.ms 220; op = Campaign.Heal_net 0 };
      { at = Vtime.ms 260; op = Campaign.Unblock_send (1, 0) };
      { at = Vtime.ms 300; op = Campaign.Fail_net 1 };
    ]

let fingerprint (r : Runner.result) =
  ( r.Runner.violations,
    r.Runner.delivered,
    r.Runner.finished_at,
    r.Runner.events,
    Runner.history r )

let test_chaos_domains_deterministic style () =
  let campaign = chaos_campaign style in
  let r1 = Runner.run ~sim_domains:1 campaign in
  let r8 = Runner.run ~sim_domains:8 campaign in
  Alcotest.(check bool)
    "sim_domains 1 and 8 produce one fingerprint" true
    (fingerprint r1 = fingerprint r8);
  Alcotest.(check int) "equal events_processed" r1.Runner.events r8.Runner.events;
  Alcotest.(check bool) "work was done" true (r1.Runner.delivered > 0)

(* --- window batching -------------------------------------------------- *)

(* Batching is an overhead amortization, not a semantics: over random
   styles, seeds, wire modes and horizon factors, a sim-domains-1 run
   with batching on must produce the same full fingerprint as the same
   campaign with batching off. Campaigns are deliberately small (two
   bursts, short window) so the property gets breadth, not depth — the
   Slow chaos tests above cover the deep schedules. *)
let batched_equals_plain (style_idx, seed, wire, factor) =
  let style =
    match style_idx with
    | 0 -> Totem_rrp.Style.No_replication
    | 1 -> Totem_rrp.Style.Active
    | _ -> Totem_rrp.Style.Passive
  in
  let campaign =
    Campaign.make ~num_nodes:4 ~num_nets:2 ~style ~seed ~duration:(Vtime.ms 60)
      ~quiesce:(Vtime.ms 800)
      ~traffic:
        (Campaign.Bursts [ (0, 256, 3, Vtime.ms 5); (2, 512, 2, Vtime.ms 25) ])
      ~wire []
  in
  let batched =
    Runner.run ~sim_domains:1 ~window_batch:true ~max_horizon_factor:factor
      campaign
  in
  let plain = Runner.run ~sim_domains:1 ~window_batch:false campaign in
  fingerprint batched = fingerprint plain && batched.Runner.delivered > 0

let qcheck_batching_deterministic =
  QCheck.Test.make ~name:"exchange: batched run == unbatched run at d1"
    ~count:8
    QCheck.(
      quad (int_range 0 2) (int_range 0 10_000) bool (int_range 1 16))
    batched_equals_plain

(* Cases the property once failed: every node's merge-probe timer
   fires at the same instant (800 ms), and a solo window capped exactly
   at the other partitions' next event flushed the soloist's probe a
   barrier ahead of the lower-numbered nodes' probes, reordering the
   shared medium. *)
let test_batching_equal_time_sends () =
  List.iter
    (fun case ->
      let style, seed, _, factor = case in
      Alcotest.(check bool)
        (Printf.sprintf "style %d seed %d factor %d" style seed factor)
        true (batched_equals_plain case))
    [ (1, 4935, false, 2); (2, 9674, false, 9) ]

(* The lookahead-bound harness again, with batching on and a random
   horizon factor: a barrier may only skip its flush when every hook is
   empty, and an adaptive solo window must shrink its cap the moment
   the soloist buffers cross-partition work. If either rule broke, a
   buffered hop would be flushed late (landing in the destination's
   past, raising) or never — so "no exception, every hop delivered,
   outbox empty at the end" is exactly "no hook ever observed a skipped
   or late flush". *)
let qcheck_batching_never_skips_pending_flush =
  QCheck.Test.make ~name:"exchange: batching never skips a pending flush"
    ~count:60
    QCheck.(
      quad (int_range 1 500) (int_range 2 4) (int_range 1 16)
        (list_of_size (Gen.int_range 0 30)
           (triple (int_range 0 3) (int_range 0 5000) (int_range 0 5))))
    (fun (lookahead, nparts, factor, sends) ->
      (* Clamp so shrunk inputs stay inside the generator bounds:
         QCheck's int shrinker walks toward 0, below the ranges. *)
      let lookahead = max 1 lookahead in
      let nparts = max 2 nparts in
      let factor = max 1 factor in
      let global = Sim.create () in
      let parts = Array.init nparts (fun i -> Sim.create ~seed:(7 + i) ()) in
      let ex =
        Exchange.create ~batching:true ~max_horizon_factor:factor ~lookahead
          ~global ~parts ()
      in
      let outbox = ref [] in
      let delivered = ref 0 in
      let expected =
        List.fold_left (fun acc (_, _, hops) -> acc + hops + 1) 0 sends
      in
      let rec send ~src ~hops =
        outbox := (Sim.now parts.(src), (src + 1) mod nparts, hops) :: !outbox
      and deliver dst hops () =
        incr delivered;
        if hops > 0 then send ~src:dst ~hops:(hops - 1)
      in
      Exchange.add_barrier_hook ex
        ~next:(fun () ->
          List.fold_left (fun a (t, _, _) -> Vtime.min a t) Vtime.never !outbox)
        (fun _h1 ->
          let items = List.rev !outbox in
          outbox := [];
          List.iter
            (fun (t, dst, hops) ->
              ignore
                (Sim.schedule_at parts.(dst) ~time:(t + lookahead)
                   (deliver dst hops)))
            items);
      List.iter
        (fun (src, at, hops) ->
          let src = src mod nparts in
          ignore
            (Sim.schedule_at parts.(src) ~time:at (fun () -> send ~src ~hops)))
        sends;
      Exchange.run_until ex 10_000;
      let stats = Exchange.stats ex in
      !delivered = expected
      && !outbox = []
      && Exchange.horizon ex = 10_000
      && stats.Exchange.windows_batched <= stats.Exchange.windows_run)

(* The amortization must engage exactly when enabled: local-only work
   (no hook ever holds anything) makes every barrier skippable, so the
   batched counter climbs with batching on and stays zero with it
   off — and either way the partitions process all their events. *)
let test_windows_batched_counter () =
  let run batching =
    let global = Sim.create () in
    let parts = Array.init 2 (fun i -> Sim.create ~seed:(3 + i) ()) in
    let ex = Exchange.create ~batching ~lookahead:10 ~global ~parts () in
    let fired = ref 0 in
    for k = 1 to 50 do
      ignore (Sim.schedule_at parts.(k mod 2) ~time:(k * 7) (fun () -> incr fired))
    done;
    Exchange.run_until ex 1_000;
    Alcotest.(check int) "all local events fired" 50 !fired;
    Exchange.stats ex
  in
  let on = run true and off = run false in
  Alcotest.(check bool)
    "batched counter engaged on idle-heavy run" true
    (on.Exchange.windows_batched > 0);
  Alcotest.(check int) "counter stays zero when disabled" 0
    off.Exchange.windows_batched

(* Cluster teardown must join the exchange's worker pool: after
   [Cluster.shutdown] no worker domain may outlive the simulation. *)
let test_shutdown_joins_worker_pool () =
  let config = Totem_cluster.Config.make ~num_nodes:4 ~sim_domains:4 () in
  let cluster = Totem_cluster.Cluster.create config in
  Totem_cluster.Cluster.start cluster;
  (* The pool spawns lazily, on the first window with two or more
     active partitions — a short quiet run never triggers it, so drive
     long enough for node timers to coincide inside one window. *)
  Totem_cluster.Cluster.run_until cluster (Vtime.ms 500);
  let ex =
    match Totem_cluster.Cluster.exchange cluster with
    | Some ex -> ex
    | None -> Alcotest.fail "sim_domains 4 must run the parallel core"
  in
  Alcotest.(check bool)
    "worker pool was spawned" true
    (Exchange.live_workers ex > 0);
  Totem_cluster.Cluster.shutdown cluster;
  Alcotest.(check int) "no worker domains after shutdown" 0
    (Exchange.live_workers ex)

(* --- Parallel.map ----------------------------------------------------- *)

exception Boom of int

let test_parallel_map_results () =
  let items = Array.init 100 Fun.id in
  Alcotest.(check (array int))
    "squares, in order"
    (Array.map (fun x -> x * x) items)
    (Parallel.map ~jobs:4 (fun x -> x * x) items)

let test_parallel_map_propagates () =
  (* items 3, 10, 17, ... raise on worker domains; the lowest-indexed
     failure must surface as itself, not as a join error *)
  let f x = if x mod 7 = 3 then raise (Boom x) else x in
  Alcotest.check_raises "lowest-indexed worker exception" (Boom 3) (fun () ->
      ignore (Parallel.map ~jobs:3 f (Array.init 50 Fun.id)));
  Alcotest.check_raises "sequential path too" (Boom 3) (fun () ->
      ignore (Parallel.map ~jobs:1 f (Array.init 50 Fun.id)))

(* --- hot-path allocation ------------------------------------------- *)

(* The per-event budget is the caller's closure plus one queue entry,
   both paid when the event is scheduled: firing it (peek, pop, clock
   update, call) allocates nothing. Everything is scheduled up front
   with one shared closure, so the words counted around the drain must
   be a small constant, not a multiple of the event count. *)
let alloc_events = 1000

let schedule_alloc_load sim fired =
  let f () = incr fired in
  for i = 1 to alloc_events do
    ignore (Sim.schedule sim ~delay:(Vtime.us i) f);
    (* a timer re-arm, as [Timer.restart] does it: arm, cancel, arm *)
    let h = Sim.schedule_timer sim ~delay:(Vtime.us i) f in
    Sim.cancel_timer sim h;
    ignore (Sim.schedule_timer sim ~delay:(Vtime.us i + 1) f)
  done

let minor_words_during f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_drain_allocation () =
  let check_constant what words fired =
    Alcotest.(check int) (what ^ ": every event fired") (2 * alloc_events) fired;
    if words > 64.0 then
      Alcotest.failf "%s allocated %.0f words for %d events" what words
        (2 * alloc_events)
  in
  let sim = Sim.create () in
  let fired = ref 0 in
  schedule_alloc_load sim fired;
  let words = minor_words_during (fun () -> Sim.run_until sim (Vtime.ms 2)) in
  check_constant "classic Sim.run_until" words !fired;
  (* One partition owning all work within [max_horizon_factor]
     lookaheads, no hook holding work: the exchange runs it in one
     widened solo window through [drain_while]. *)
  let global = Sim.create () in
  let part = Sim.create ~seed:7 () in
  let ex =
    Exchange.create ~batching:true ~max_horizon_factor:32
      ~lookahead:(Vtime.us 100) ~global ~parts:[| part |] ()
  in
  let fired = ref 0 in
  schedule_alloc_load part fired;
  let words = minor_words_during (fun () -> Exchange.run_until ex (Vtime.ms 4)) in
  Alcotest.(check bool)
    "the drain ran in a widened window" true
    ((Exchange.stats ex).Exchange.windows_widened >= 1);
  check_constant "exchange drain_while window" words !fired

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_lookahead_bound;
      qcheck_canonical_merge_total_order;
      qcheck_batching_deterministic;
      qcheck_batching_never_skips_pending_flush;
    ]
  @ [
      Alcotest.test_case "batched == unbatched with equal-time sends" `Quick
        test_batching_equal_time_sends;
      Alcotest.test_case "windows-batched counter engages iff enabled" `Quick
        test_windows_batched_counter;
      Alcotest.test_case "cluster shutdown joins the worker pool" `Quick
        test_shutdown_joins_worker_pool;
      Alcotest.test_case "chaos fingerprint d1=d8 (no replication)" `Slow
        (test_chaos_domains_deterministic Totem_rrp.Style.No_replication);
      Alcotest.test_case "chaos fingerprint d1=d8 (active)" `Slow
        (test_chaos_domains_deterministic Totem_rrp.Style.Active);
      Alcotest.test_case "chaos fingerprint d1=d8 (passive)" `Slow
        (test_chaos_domains_deterministic Totem_rrp.Style.Passive);
      Alcotest.test_case "drains allocate O(1) words, not per event" `Quick
        test_drain_allocation;
      Alcotest.test_case "Parallel.map results land by index" `Quick
        test_parallel_map_results;
      Alcotest.test_case "Parallel.map propagates worker exceptions" `Quick
        test_parallel_map_propagates;
    ]
