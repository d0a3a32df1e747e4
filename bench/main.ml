(* The benchmark harness: regenerates every figure of the paper's
   evaluation (Sec. 8) plus the headline claims, runs the ablation
   sweeps called out in DESIGN.md, and micro-benchmarks the
   protocol-critical data structures with Bechamel.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig6         # one figure
     dune exec bench/main.exe -- fig6 fig8    # several
     dune exec bench/main.exe -- --quick all  # shorter simulations
     dune exec bench/main.exe -- --check all  # assert the paper's shape
     dune exec bench/main.exe -- --jobs 8 all # sweep points across domains
     dune exec bench/main.exe -- --sim-domains 4 fig6  # parallel core per point
     dune exec bench/main.exe -- --json out.json all  # machine-readable results

   Every sweep point builds its own self-contained Cluster (own
   simulator, own split RNG streams), so points are independent:
   [--jobs N] fans them out across OCaml 5 domains and produces
   bitwise-identical figures to a sequential run. [--sim-domains N]
   instead parallelizes inside each cluster (the conservative-lookahead
   simulator core); figures are bitwise-identical for every N >= 1.

   Targets: fig6 fig7 fig8 fig9 wire parallel-smoke perf-smoke soak
   soak-smoke headline claims latency ablations micro all. An unknown
   target exits 2.

   This harness reports what the paper reports, plus exact cost counts
   (simulator events, words allocated per event, exchange windows). It
   takes no wall-clock measurement: the simulator's speed, including
   the parallel core's per-window overhead against the classic loop, is
   measured in normalised time by [perfbench/bench.exe reference]. *)

module Cluster = Totem_cluster.Cluster
module Config = Totem_cluster.Config
module Workload = Totem_cluster.Workload
module Metrics = Totem_cluster.Metrics
module Report = Totem_cluster.Report
module Style = Totem_rrp.Style
module Vtime = Totem_engine.Vtime
module Stats = Totem_engine.Stats
module Const = Totem_srp.Const
module Campaign = Totem_chaos.Campaign
module Runner = Totem_chaos.Runner

(* --- measurement -------------------------------------------------- *)

let quick = ref false
let check = ref false
let csv_dir = ref None
let jobs = ref 1
let sim_domains = ref 0
let json_path = ref None
let failures = ref []

(* Simulator events popped by every cluster this process ran; atomics
   because sweep points may execute on worker domains. The window
   counters aggregate the parallel core's barrier amortization
   (Exchange.stats) across every partitioned cluster of a target. *)
let events_total = Atomic.make 0
let windows_run_total = Atomic.make 0
let windows_batched_total = Atomic.make 0
let windows_widened_total = Atomic.make 0

(* Why the running target ran no simulator events of its own, if it
   ran none; the JSON writes null and this reason instead of 0. *)
let events_note = ref None

(* Words allocated by this domain so far, exactly: [Gc.minor_words]
   counts the minor heap up to the allocation pointer, whereas the
   [minor_words] of [Gc.quick_stat] and [Gc.counters] catch up only at a
   minor collection, so their deltas move with the heap's fill level
   when a measurement starts. Major minus promoted words adds the
   direct major-heap allocations. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Per-cluster accounting at the end of a point: events, the exchange's
   window stats, and the worker-pool join (a no-op in classic mode). *)
let note_cluster cluster =
  ignore (Atomic.fetch_and_add events_total (Metrics.events_processed cluster));
  (match Cluster.exchange cluster with
  | Some ex ->
    let st = Totem_engine.Exchange.stats ex in
    ignore
      (Atomic.fetch_and_add windows_run_total
         st.Totem_engine.Exchange.windows_run);
    ignore
      (Atomic.fetch_and_add windows_batched_total
         st.Totem_engine.Exchange.windows_batched);
    ignore
      (Atomic.fetch_and_add windows_widened_total
         st.Totem_engine.Exchange.windows_widened)
  | None -> ());
  Cluster.shutdown cluster

let duration () = if !quick then Vtime.ms 400 else Vtime.sec 1
let warmup () = Vtime.ms 300

let expect name cond detail =
  if !check then
    if cond then Format.printf "  CHECK ok: %s@." name
    else begin
      Format.printf "  CHECK FAILED: %s (%s)@." name detail;
      failures := name :: !failures
    end

(* Run [f items.(i)] for every i, fanning out across [jobs] domains.
   Each item is independent and deterministic, and results land by
   index, so the output — and every figure computed from it — is
   bitwise-identical to the sequential run. A point that raises on a
   worker domain fails the bench run with its own exception and
   backtrace (Totem_engine.Parallel), not an opaque join error. *)
let parallel_map ~jobs f items = Totem_engine.Parallel.map ~jobs f items

(* Every point carries its protocol telemetry out of the run: rotation
   timing, retransmission counters, and a problemCounter trajectory
   sampled every 50 ms of virtual time. The sampler is installed
   unconditionally (it is read-only) so figures are bitwise identical
   whether or not anyone looks at the telemetry. *)
let run_point ?(const = Const.default) ?(wire = false) ~num_nodes ~num_nets
    ~style ~size () =
  let config =
    Config.make ~num_nodes ~num_nets ~style ~const ~wire_bytes:wire
      ~sim_domains:!sim_domains ()
  in
  let cluster = Cluster.create config in
  let sampler = Metrics.install_fault_sampler cluster ~interval:(Vtime.ms 50) in
  Cluster.start cluster;
  Workload.saturate cluster ~size;
  let tp =
    Metrics.measure_throughput cluster ~warmup:(warmup ()) ~duration:(duration ())
  in
  let util = Metrics.network_utilisation cluster ~net:0 in
  let pt = Metrics.collect_point_telemetry ~sampler cluster in
  note_cluster cluster;
  (tp, util, pt)

let tp_of_point (tp, _, _) = tp

let sizes = [| 100; 200; 400; 700; 1024; 1400; 2048; 4096; 8192; 10240 |]

let styles =
  [
    ("no repl", Style.No_replication);
    ("active", Style.Active);
    ("passive", Style.Passive);
  ]

(* One sweep serves both the msgs/sec figure and the KB/sec figure.
   The style x size grid is the unit of parallelism. *)
let sweep ~wire ~num_nodes =
  let tasks =
    Array.concat
      (List.map (fun (_, style) -> Array.map (fun size -> (style, size)) sizes)
         styles)
  in
  let pts =
    parallel_map ~jobs:!jobs
      (fun (style, size) ->
        let tp, _, pt =
          run_point ~wire ~num_nodes ~num_nets:2 ~style ~size ()
        in
        (tp, pt))
      tasks
  in
  List.mapi
    (fun si (name, style) ->
      (name, style, Array.sub pts (si * Array.length sizes) (Array.length sizes)))
    styles

let cache :
    ( int * bool,
      (string * Style.t * (Metrics.throughput * Metrics.point_telemetry) array)
      list )
    Hashtbl.t =
  Hashtbl.create 4

let sweep_cached ?(wire = false) ~num_nodes () =
  match Hashtbl.find_opt cache (num_nodes, wire) with
  | Some s ->
    events_note :=
      Some
        (Printf.sprintf
           "reuses the cached %d-node sweep; its events count under the \
            target that ran it"
           num_nodes);
    s
  | None ->
    let s = sweep ~wire ~num_nodes in
    Hashtbl.replace cache (num_nodes, wire) s;
    s

let rate_series s =
  List.map
    (fun (name, _, pts) ->
      (name, Array.map (fun (p, _) -> p.Metrics.msgs_per_sec) pts))
    s

let bw_series s =
  List.map
    (fun (name, _, pts) ->
      (name, Array.map (fun (p, _) -> p.Metrics.kbytes_per_sec) pts))
    s

let find_series s name = List.assoc name s

let idx_of_size size =
  let found = ref (-1) in
  Array.iteri (fun i s -> if s = size then found := i) sizes;
  !found

let shape_checks ~num_nodes s =
  let rates = rate_series s and bws = bw_series s in
  let at series name size = (find_series series name).(idx_of_size size) in
  let none_1k = at rates "no repl" 1024
  and act_1k = at rates "active" 1024
  and pas_1k = at rates "passive" 1024 in
  expect
    (Printf.sprintf "%d nodes: active below unreplicated at 1KB" num_nodes)
    (act_1k < none_1k)
    (Printf.sprintf "active=%.0f none=%.0f" act_1k none_1k);
  expect
    (Printf.sprintf "%d nodes: passive above unreplicated at 1KB" num_nodes)
    (pas_1k > none_1k)
    (Printf.sprintf "passive=%.0f none=%.0f" pas_1k none_1k);
  expect
    (Printf.sprintf "%d nodes: active reduction O(1000-1500) msgs/s" num_nodes)
    (none_1k -. act_1k >= 500.0 && none_1k -. act_1k <= 3000.0)
    (Printf.sprintf "gap=%.0f" (none_1k -. act_1k));
  let gain_kb = at bws "passive" 1024 -. at bws "no repl" 1024 in
  expect
    (Printf.sprintf "%d nodes: passive gains O(2000-4000) KB/s" num_nodes)
    (gain_kb >= 1000.0 && gain_kb <= 6000.0)
    (Printf.sprintf "gain=%.0f KB/s" gain_kb);
  (* Packing peaks: frame-fill efficiency peaks at 700 and 1400 bytes
     (Sec. 8). *)
  let bw_none x = at bws "no repl" x in
  expect
    (Printf.sprintf "%d nodes: 700B peak" num_nodes)
    (bw_none 700 > bw_none 400)
    (Printf.sprintf "700B=%.0f 400B=%.0f" (bw_none 700) (bw_none 400));
  expect
    (Printf.sprintf "%d nodes: 1400B peak" num_nodes)
    (bw_none 1400 > bw_none 1024)
    (Printf.sprintf "1400B=%.0f 1024B=%.0f" (bw_none 1400) (bw_none 1024));
  (* Passive exceeds one Ethernet but does not approach twice the
     unreplicated rate (Sec. 8). *)
  let max_ratio =
    Array.fold_left max 0.0
      (Array.mapi
         (fun i _ ->
           Report.ratio
             (find_series rates "passive").(i)
             (find_series rates "no repl").(i))
         sizes)
  in
  expect
    (Printf.sprintf "%d nodes: passive does not approach 2x" num_nodes)
    (max_ratio < 1.9)
    (Printf.sprintf "max ratio %.2f" max_ratio)

(* Figure sweeps executed so far, for the JSON emitter. *)
let fig_results :
    ( string,
      (string * (Metrics.throughput * Metrics.point_telemetry) array) list )
    Hashtbl.t =
  Hashtbl.create 4

let fig ~n ~num_nodes ~bandwidth () =
  let s = sweep_cached ~num_nodes () in
  Hashtbl.replace fig_results
    (Printf.sprintf "fig%d" n)
    (List.map (fun (name, _, pts) -> (name, pts)) s);
  let title =
    Printf.sprintf "Figure %d: transmission rate (%s) vs message length, %d nodes"
      n
      (if bandwidth then "Kbytes/sec" else "msgs/sec")
      num_nodes
  in
  let series = if bandwidth then bw_series s else rate_series s in
  Report.print_series ~title ~x_label:"bytes" ~xs:sizes series;
  Report.ascii_plot
    ~title:
      (if bandwidth then "          (Kbytes/sec, linear)"
       else "          (msgs/sec, log scale)")
    ~log_y:(not bandwidth) ~xs:sizes series;
  (match !csv_dir with
  | Some dir ->
    let path = Filename.concat dir (Printf.sprintf "fig%d.csv" n) in
    let oc = open_out path in
    output_string oc (Report.csv_of_series ~x_label:"bytes" ~xs:sizes ~series);
    close_out oc;
    Format.printf "  (wrote %s)@." path
  | None -> ());
  if not bandwidth then shape_checks ~num_nodes s

let fig6 () = fig ~n:6 ~num_nodes:4 ~bandwidth:false ()
let fig7 () = fig ~n:7 ~num_nodes:6 ~bandwidth:false ()
let fig8 () = fig ~n:8 ~num_nodes:4 ~bandwidth:true ()
let fig9 () = fig ~n:9 ~num_nodes:6 ~bandwidth:true ()

(* --- wire: byte-faithful mode, the encode+CRC overhead --------------- *)

(* The fig6 sweep re-run in byte-wire mode: every payload serialized
   through the binary codec with a CRC-32 trailer at the sending NIC,
   CRC-checked and totally decoded at the receiver. Serialization is
   host CPU work, not simulated time, so the simulated figures must be
   bitwise the reference sweep; what the codec costs shows in this
   target's words per event against fig6's in the JSON (perfbench's
   gray-wire workload times it). *)
let wire () =
  let s = sweep_cached ~wire:true ~num_nodes:4 () in
  Hashtbl.replace fig_results "wire"
    (List.map (fun (name, _, pts) -> (name, pts)) s);
  Report.print_series
    ~title:
      "Byte-wire mode: transmission rate (msgs/sec) vs message length, 4 nodes"
    ~x_label:"bytes" ~xs:sizes (rate_series s);
  let reference = sweep_cached ~num_nodes:4 () in
  let identical =
    List.for_all2
      (fun (_, _, pa) (_, _, pb) ->
        Array.length pa = Array.length pb
        && Array.for_all Fun.id
             (Array.init (Array.length pa) (fun i ->
                  (fst pa.(i)).Metrics.msgs_per_sec
                  = (fst pb.(i)).Metrics.msgs_per_sec
                  && (fst pa.(i)).Metrics.kbytes_per_sec
                     = (fst pb.(i)).Metrics.kbytes_per_sec)))
      s reference
  in
  Format.printf "  wire-mode figures %s the reference sweep@."
    (if identical then "are bitwise identical to" else "DIVERGE from");
  expect "wire mode is timing-neutral" identical
    "a wire-mode point differs from its reference point"

(* --- parallel: the conservative-lookahead simulator core ------------- *)

(* Determinism gate for `dune runtest` (bench-parallel-smoke): a quick
   fig6 slice — passive style, two sizes, byte-wire on — at sim-domains
   1 vs 4 must agree on every figure, the event count, and the protocol
   telemetry down to the problemCounter trajectory. Exits 1 on any
   divergence. *)
let parallel_smoke () =
  let point ~domains size =
    let config =
      Config.make ~num_nodes:4 ~num_nets:2 ~style:Style.Passive ~wire_bytes:true
        ~sim_domains:domains ()
    in
    let cluster = Cluster.create config in
    let sampler = Metrics.install_fault_sampler cluster ~interval:(Vtime.ms 50) in
    Cluster.start cluster;
    Workload.saturate cluster ~size;
    let tp =
      Metrics.measure_throughput cluster ~warmup:(Vtime.ms 100)
        ~duration:(Vtime.ms 200)
    in
    let pt = Metrics.collect_point_telemetry ~sampler cluster in
    let events = Metrics.events_processed cluster in
    note_cluster cluster;
    ( tp.Metrics.msgs_per_sec,
      tp.Metrics.kbytes_per_sec,
      events,
      pt.Metrics.pt_rotation_count,
      pt.Metrics.pt_retransmits_served,
      pt.Metrics.pt_token_retransmits,
      pt.Metrics.pt_duplicate_packets,
      pt.Metrics.pt_trajectory )
  in
  let diverged = ref false in
  List.iter
    (fun size ->
      let a = point ~domains:1 size and b = point ~domains:4 size in
      let ok = a = b in
      if not ok then diverged := true;
      let m, k, ev, _, _, _, _, _ = a in
      Format.printf "  %5dB: d1 %s d4  (%.0f msgs/sec, %.0f KB/sec, %d events)@."
        size
        (if ok then "==" else "DIVERGES FROM")
        m k ev)
    [ 700; 1024 ];
  if !diverged then begin
    Format.printf "  parallel core DIVERGED between sim-domains 1 and 4@.";
    exit 1
  end
  else Format.printf "  sim-domains 1 and 4 are bitwise identical@."

(* --- perf-smoke: exact cost pins ------------------------------------- *)

(* The quick fig6 point perf-smoke measures: 4 nodes, passive, 1 KB
   saturating traffic, 200 ms measured after 100 ms of warm-up. Returns
   the words allocated per simulated event, the events and the exchange
   windows run (0 in the classic loop), all over the measured 200 ms. *)
let fig6_point_cost ~sim_domains =
  let config =
    Config.make ~num_nodes:4 ~num_nets:2 ~style:Style.Passive ~sim_domains ()
  in
  let cluster = Cluster.create config in
  ignore (Metrics.install_fault_sampler cluster ~interval:(Vtime.ms 50));
  Cluster.start cluster;
  Workload.saturate cluster ~size:1024;
  Cluster.run_for cluster (Vtime.ms 100);
  let windows () =
    match Cluster.exchange cluster with
    | Some ex ->
      (Totem_engine.Exchange.stats ex).Totem_engine.Exchange.windows_run
    | None -> 0
  in
  let e0 = Metrics.events_processed cluster and x0 = windows () in
  let w0 = allocated_words () in
  Cluster.run_for cluster (Vtime.ms 200);
  let w1 = allocated_words () in
  let e1 = Metrics.events_processed cluster and x1 = windows () in
  note_cluster cluster;
  ((w1 -. w0) /. float_of_int (e1 - e0), e1 - e0, x1 - x0)

(* The subscribed path, which the fig6 point never takes: one fixed
   chaos campaign through [Runner.run], so the invariant monitor and the
   flight recorder listen and every emit site builds its event. 3
   nodes, active, byte-wire, a burst from each node, net 0 failed and
   healed. Returns the words allocated per simulated event over the
   whole run (construction included), the events and whether the
   monitors stayed clean. The campaign runs once first, so one-time
   initialisation is not counted. *)
let subscribed_run_cost () =
  let ms = Vtime.ms in
  let campaign =
    Campaign.make ~num_nodes:3 ~num_nets:2 ~style:Style.Active ~seed:11
      ~duration:(ms 200) ~quiesce:(ms 300) ~wire:true
      ~traffic:
        (Campaign.Bursts
           [ (0, 512, 20, ms 10); (1, 700, 20, ms 60); (2, 300, 20, ms 120) ])
      [
        { Campaign.at = ms 50; op = Campaign.Fail_net 0 };
        { at = ms 150; op = Campaign.Heal_net 0 };
      ]
  in
  let count r = ignore (Atomic.fetch_and_add events_total r.Runner.events) in
  count (Runner.run campaign);
  let w0 = allocated_words () in
  let r = Runner.run campaign in
  let w1 = allocated_words () in
  count r;
  ((w1 -. w0) /. float_of_int r.Runner.events, r.Runner.events, Runner.passed r)

(* The pins. All are counts, not timings, so they repeat exactly from
   run to run on any host. Each words/event ceiling sits about one word
   above the figure measured when it was pinned (33.32 in the classic
   loop, 34.24 at sim-domains 1, 123.04 on the subscribed path), so
   one extra allocation per event (at least two words) trips it. The
   event and window counts at sim-domains 1 and the subscribed run's
   event count must match exactly: one extra event per token visit
   moves an event count, one more or one fewer barrier the windows.
   Batching that stops engaging moves neither (a skipped flush is
   still a window); the batched-barrier check below catches it. A change that
   moves a pin on purpose re-pins it. *)
let classic_words_ceiling = 34.3
let d1_words_ceiling = 35.2
let d1_events = 17_361
let d1_windows = 5_178
let subscribed_words_ceiling = 124.0
let subscribed_events = 10_704

(* Cost and batching gate for `dune runtest` (perf-smoke): the pins
   above (the subscribed campaign must also stay violation-free), then
   a quick fig6 slice at sim-domains 1 with batching on vs off must
   agree on every figure, the event count and the protocol
   telemetry, and the batched run must actually skip barriers (none
   skipped with batching off). Deterministic throughout, so it cannot
   flake on a loaded host. Exits 1 on any breach. *)
let perf_smoke () =
  let failed = ref false in
  let pin what ok =
    if not ok then begin
      failed := true;
      Format.printf "  BREACH: %s@." what
    end
  in
  let wpe, _, _ = fig6_point_cost ~sim_domains:0 in
  Format.printf
    "  fig6 point 1024B passive, classic: %.2f words/event (ceiling %.1f)@."
    wpe classic_words_ceiling;
  pin "classic words/event above ceiling" (wpe <= classic_words_ceiling);
  let wpe, events, windows = fig6_point_cost ~sim_domains:1 in
  Format.printf
    "  fig6 point 1024B passive, sim-domains 1: %.2f words/event (ceiling \
     %.1f), %d events (pinned %d), %d windows (pinned %d)@."
    wpe d1_words_ceiling events d1_events windows d1_windows;
  pin "sim-domains 1 words/event above ceiling" (wpe <= d1_words_ceiling);
  pin "sim-domains 1 event count moved" (events = d1_events);
  pin "sim-domains 1 window count moved" (windows = d1_windows);
  let wpe, events, passed = subscribed_run_cost () in
  Format.printf
    "  chaos campaign, monitor and recorder subscribed: %.2f words/event \
     (ceiling %.1f), %d events (pinned %d)@."
    wpe subscribed_words_ceiling events subscribed_events;
  pin "subscribed words/event above ceiling" (wpe <= subscribed_words_ceiling);
  pin "subscribed event count moved" (events = subscribed_events);
  pin "subscribed campaign violated an invariant" passed;
  let point ~batch size =
    let config =
      Config.make ~num_nodes:4 ~num_nets:2 ~style:Style.Passive ~wire_bytes:true
        ~sim_domains:1 ~window_batch:batch ()
    in
    let cluster = Cluster.create config in
    let sampler = Metrics.install_fault_sampler cluster ~interval:(Vtime.ms 50) in
    Cluster.start cluster;
    Workload.saturate cluster ~size;
    let tp =
      Metrics.measure_throughput cluster ~warmup:(Vtime.ms 100)
        ~duration:(Vtime.ms 200)
    in
    let pt = Metrics.collect_point_telemetry ~sampler cluster in
    let events = Metrics.events_processed cluster in
    let st =
      Totem_engine.Exchange.stats (Option.get (Cluster.exchange cluster))
    in
    note_cluster cluster;
    let fingerprint =
      ( tp.Metrics.msgs_per_sec,
        tp.Metrics.kbytes_per_sec,
        events,
        pt.Metrics.pt_rotation_count,
        pt.Metrics.pt_retransmits_served,
        pt.Metrics.pt_token_retransmits,
        pt.Metrics.pt_duplicate_packets,
        pt.Metrics.pt_trajectory )
    in
    (fingerprint, st)
  in
  List.iter
    (fun size ->
      let fa, sa = point ~batch:true size in
      let fb, sb = point ~batch:false size in
      Format.printf
        "  %5dB: batched %s unbatched  (windows %d vs %d, skipped %d, widened \
         %d)@."
        size
        (if fa = fb then "==" else "DIVERGES FROM")
        sa.Totem_engine.Exchange.windows_run
        sb.Totem_engine.Exchange.windows_run
        sa.Totem_engine.Exchange.windows_batched
        sa.Totem_engine.Exchange.windows_widened;
      pin
        (Printf.sprintf "%dB: batched run diverges from unbatched" size)
        (fa = fb);
      pin
        (Printf.sprintf "%dB: batching never engaged (0 barriers skipped)" size)
        (sa.Totem_engine.Exchange.windows_batched > 0);
      pin (Printf.sprintf "%dB: batching disabled yet barriers skipped" size)
        (sb.Totem_engine.Exchange.windows_batched = 0))
    [ 700; 1024 ];
  if !failed then begin
    Format.printf "  BREACHED the perf-smoke gate@.";
    exit 1
  end
  else
    Format.printf
      "  cost pins hold; batching on/off bitwise identical and engaged@."

(* --- soak: a long gray-failure campaign ----------------------------- *)

(* One long run through six operating phases — clean, sporadic bursty
   loss, full gray failure (heavy Gilbert–Elliott loss + latency
   inflation + directional loss on network 0), probation (the injected
   faults clear, the condemned network probes and reinstates), flap
   storm (oscillating loss that flap damping must absorb) and healed —
   with the condemned-network reinstatement protocol on throughout.

   Traffic is a fixed-rate stamped stream from every node, so each
   phase reports both delivered throughput and the delivery-latency
   distribution (p50/p99/p999) — the gray-failure phases should show
   masked throughput (the surviving network carries the ring) with a
   latency tail, not an outage. Every fault dimension draws on the
   coordinator's per-network simulation RNG, so the whole phase table
   is bitwise-identical for any sim-domains >= 1; the soak-smoke
   target gates d1 against d8 on exactly that. *)

type soak_phase = {
  sp_name : string;
  sp_msgs_per_sec : float;
  sp_count : int;  (** latency samples in the phase *)
  sp_p50 : float;
  sp_p90 : float;
  sp_p99 : float;
  sp_p999 : float;
  sp_net0 : string;  (** node 0's reinstatement state for net 0 at phase end *)
}

let soak_results : soak_phase list ref = ref []

let soak_run ?sim_domains:sd () =
  let sim_domains = Option.value sd ~default:!sim_domains in
  (* Soak-tuned reinstatement: shorter backoff and probation than the
     defaults so condemn -> probation -> reinstate -> re-condemn cycles
     fit inside bench-scale phases; the flap limit is raised so damping
     does not exhaust probes before the probation phase. *)
  let rrp =
    {
      Totem_rrp.Rrp_config.default with
      Totem_rrp.Rrp_config.reinstate = true;
      reinstate_backoff = Vtime.ms 250;
      reinstate_backoff_max = Vtime.sec 1;
      reinstate_clean_rotations = 10;
      reinstate_flap_limit = 6;
    }
  in
  let config =
    Config.make ~num_nodes:4 ~num_nets:2 ~style:Style.Passive ~rrp
      ~wire_bytes:true ~sim_domains ()
  in
  let cluster = Cluster.create config in
  Cluster.start cluster;
  for node = 0 to 3 do
    Workload.fixed_rate cluster ~node ~size:512 ~interval:(Vtime.ms 2) ()
  done;
  let phase_len = if !quick then Vtime.ms 800 else Vtime.sec 2 in
  let sim = Cluster.sim cluster in
  let clear_gray () =
    Cluster.set_network_burst_loss cluster 0 ~p_enter:0.0 ~p_exit:1.0;
    Cluster.set_network_delay cluster 0 ~factor:1.0 ~spike_prob:0.0;
    Cluster.set_network_dir_loss cluster 0 ~src:0 ~dst:1 0.0
  in
  let phases =
    [
      ("clean", fun () -> ());
      ( "bursty",
        fun () ->
          Cluster.set_network_burst_loss cluster 0 ~p_enter:0.05 ~p_exit:0.2 );
      ( "gray",
        fun () ->
          Cluster.set_network_burst_loss cluster 0 ~p_enter:0.3 ~p_exit:0.05;
          Cluster.set_network_delay cluster 0 ~factor:3.0 ~spike_prob:0.05;
          Cluster.set_network_dir_loss cluster 0 ~src:0 ~dst:1 0.5 );
      ("probation", clear_gray);
      ( "storm",
        fun () ->
          (* Oscillate within the phase: heavy burst for a third, clear
             for a third, heavy again — the reinstatement FSM sees the
             network flap and damping has to absorb it. *)
          let third = phase_len / 3 in
          Cluster.set_network_burst_loss cluster 0 ~p_enter:0.9 ~p_exit:0.05;
          ignore
            (Totem_engine.Sim.schedule sim ~delay:third (fun () ->
                 Cluster.set_network_burst_loss cluster 0 ~p_enter:0.0
                   ~p_exit:1.0));
          ignore
            (Totem_engine.Sim.schedule sim ~delay:(2 * third) (fun () ->
                 Cluster.set_network_burst_loss cluster 0 ~p_enter:0.9
                   ~p_exit:0.05)) );
      ( "healed",
        fun () ->
          clear_gray ();
          Cluster.heal_network cluster 0 );
    ]
  in
  let table =
    List.map
      (fun (name, setup) ->
        setup ();
        let probe = Metrics.install_latency cluster in
        let d0 = Cluster.delivered_at cluster 0 in
        Cluster.run_for cluster phase_len;
        let delivered = Cluster.delivered_at cluster 0 - d0 in
        let q p = Option.value ~default:nan (Metrics.latency_quantile probe p) in
        {
          sp_name = name;
          sp_msgs_per_sec =
            float_of_int delivered /. Vtime.to_float_sec phase_len;
          sp_count = Metrics.latency_count probe;
          sp_p50 = q 0.5;
          sp_p90 = q 0.9;
          sp_p99 = q 0.99;
          sp_p999 = q 0.999;
          sp_net0 =
            Totem_rrp.Rrp.net_state_string
              (Cluster.rrp (Cluster.node cluster 0))
              ~net:0;
        })
      phases
  in
  let events = Metrics.events_processed cluster in
  note_cluster cluster;
  (table, events)

let print_soak_table table =
  Format.printf
    "  %-10s %12s %8s %9s %9s %9s %9s  %s@." "phase" "msgs/sec" "n" "p50 ms"
    "p90 ms" "p99 ms" "p999 ms" "net0";
  List.iter
    (fun p ->
      Format.printf
        "  %-10s %12.0f %8d %9.3f %9.3f %9.3f %9.3f  %s@." p.sp_name
        p.sp_msgs_per_sec p.sp_count p.sp_p50 p.sp_p90 p.sp_p99 p.sp_p999
        p.sp_net0)
    table

let soak () =
  Format.printf
    "Gray-failure soak: 4 nodes, 2 nets, passive, wire bytes, \
     reinstatement on:@.";
  let table, _ = soak_run () in
  soak_results := table;
  print_soak_table table;
  let find name = List.find (fun p -> p.sp_name = name) table in
  expect "soak: gray phase is masked, not an outage"
    ((find "gray").sp_msgs_per_sec > 0.5 *. (find "clean").sp_msgs_per_sec)
    (Printf.sprintf "gray=%.0f clean=%.0f" (find "gray").sp_msgs_per_sec
       (find "clean").sp_msgs_per_sec);
  expect "soak: probation phase reinstated net 0"
    ((find "probation").sp_net0 = "active")
    (Printf.sprintf "net0=%s" (find "probation").sp_net0);
  expect "soak: every phase delivered"
    (List.for_all (fun p -> p.sp_count > 0) table)
    "a phase delivered no stamped messages"

(* Determinism gate for `dune runtest` (soak-smoke): the full soak phase
   table — throughput, latency quantiles, sample counts, reinstatement
   states and the event count — at sim-domains 1 vs 8 must be equal. *)
let soak_smoke () =
  let a = soak_run ~sim_domains:1 () in
  let b = soak_run ~sim_domains:8 () in
  print_soak_table (fst a);
  if a = b then Format.printf "  sim-domains 1 and 8 are bitwise identical@."
  else begin
    Format.printf "  soak DIVERGED between sim-domains 1 and 8@.";
    exit 1
  end

(* --- headline: Sec. 2's ">9,000 one-Kbyte msgs/sec, ~90%" --------- *)

let headline () =
  let tp, util, _ =
    run_point ~num_nodes:4 ~num_nets:2 ~style:Style.No_replication ~size:1024 ()
  in
  Format.printf "Headline (Sec. 2): unreplicated Totem, 4 nodes, 1 Kbyte messages:@.";
  Format.printf
    "  %.0f msgs/sec at %.0f%% Ethernet utilisation (paper: >9,000 at ~90%%)@."
    tp.Metrics.msgs_per_sec (util *. 100.0);
  expect "headline >9000 msgs/s"
    (tp.Metrics.msgs_per_sec > 8500.0)
    (Printf.sprintf "%.0f" tp.Metrics.msgs_per_sec);
  expect "headline ~90% utilisation" (util > 0.8 && util < 0.95)
    (Printf.sprintf "%.2f" util)

(* --- claims table: the numeric sentences of Sec. 8 ---------------- *)

let claims () =
  let s = sweep_cached ~num_nodes:4 () in
  let rates = rate_series s and bws = bw_series s in
  let at series name i = (List.assoc name series).(i) in
  Format.printf "Sec. 8 claim checks (4 nodes):@.";
  Format.printf "  %-10s %12s %12s %13s %12s %14s@." "size" "none msg/s"
    "active msg/s" "passive msg/s" "active gap" "passive +KB/s";
  Array.iteri
    (fun i size ->
      Format.printf "  %-10d %12.0f %12.0f %13.0f %12.0f %14.0f@." size
        (at rates "no repl" i) (at rates "active" i) (at rates "passive" i)
        (at rates "no repl" i -. at rates "active" i)
        (at bws "passive" i -. at bws "no repl" i))
    sizes

(* --- latency: delivery-latency distribution ------------------------ *)

(* A moderate fixed-rate stamped stream per node, so the probe sees
   steady-state ordering latency rather than saturation queueing. The
   full per-bucket histogram dump lands in the JSON, so baselines can be
   compared distribution to distribution, not just by quantile edges. *)
let latency_results : (string * Metrics.latency_probe) list ref = ref []

let latency () =
  let measure (name, style) =
    let config = Config.make ~num_nodes:4 ~num_nets:2 ~style () in
    let cluster = Cluster.create config in
    Cluster.start cluster;
    for node = 0 to 3 do
      Workload.fixed_rate cluster ~node ~size:1024 ~interval:(Vtime.ms 2) ()
    done;
    Cluster.run_for cluster (warmup ());
    let probe = Metrics.install_latency cluster in
    Cluster.run_for cluster (duration ());
    ignore (Atomic.fetch_and_add events_total (Metrics.events_processed cluster));
    (name, probe)
  in
  let results = parallel_map ~jobs:!jobs measure (Array.of_list styles) in
  latency_results := Array.to_list results;
  Format.printf
    "Delivery latency: 4 nodes, 2 nets, 1 Kbyte messages, 500 msgs/s/node:@.";
  Array.iter
    (fun (name, probe) ->
      match Metrics.latency_summary probe with
      | None -> Format.printf "  %-8s (no samples)@." name
      | Some s ->
        let q p = Option.value ~default:nan (Metrics.latency_quantile probe p) in
        Format.printf
          "  %-8s n=%6d  mean %6.3f ms   p50<=%.3f  p90<=%.3f  p99<=%.3f  \
           p999<=%.3f ms@."
          name (Stats.Summary.count s) (Stats.Summary.mean s) (q 0.5) (q 0.9)
          (q 0.99) (q 0.999))
    results;
  expect "latency: all styles deliver"
    (Array.for_all (fun (_, probe) -> Metrics.latency_count probe > 0) results)
    "a style delivered nothing"

(* --- ablations ----------------------------------------------------- *)

let ablation_passive_token_timer () =
  Format.printf
    "@.Ablation: passive token-buffer timeout under 10%% loss (P3 trade-off)@.";
  Format.printf "  (the paper chose 10 ms, Sec. 6)@.";
  let measure ms =
    let rrp =
      {
        Totem_rrp.Rrp_config.default with
        Totem_rrp.Rrp_config.passive_token_timeout = Vtime.ms ms;
      }
    in
    let config = Config.make ~num_nodes:4 ~num_nets:2 ~style:Style.Passive ~rrp () in
    let cluster = Cluster.create config in
    Cluster.start cluster;
    Cluster.set_network_loss cluster 0 0.1;
    Cluster.set_network_loss cluster 1 0.1;
    Workload.saturate cluster ~size:1024;
    let tp =
      Metrics.measure_throughput cluster ~warmup:(warmup ())
        ~duration:(duration ())
    in
    ignore (Atomic.fetch_and_add events_total (Metrics.events_processed cluster));
    tp
  in
  let timeouts = [| 1; 5; 10; 50; 100 |] in
  let tps = parallel_map ~jobs:!jobs measure timeouts in
  Array.iteri
    (fun i ms ->
      Format.printf "  timeout %3d ms: %8.0f msgs/sec@." ms
        tps.(i).Metrics.msgs_per_sec)
    timeouts

let detection_latency ~style ~threshold =
  let rrp =
    {
      Totem_rrp.Rrp_config.default with
      Totem_rrp.Rrp_config.active_problem_threshold = threshold;
      passive_monitor_threshold = threshold;
    }
  in
  let config = Config.make ~num_nodes:4 ~num_nets:2 ~style ~rrp () in
  let cluster = Cluster.create config in
  let detected = ref None in
  Cluster.on_fault_report cluster (fun _ _ ->
      if !detected = None then detected := Some (Cluster.now cluster));
  Cluster.start cluster;
  Workload.saturate cluster ~size:1024;
  Cluster.run_for cluster (Vtime.ms 300);
  let fail_at = Cluster.now cluster in
  Cluster.fail_network cluster 0;
  Cluster.run_for cluster (Vtime.sec 5);
  ignore (Atomic.fetch_and_add events_total (Metrics.events_processed cluster));
  Option.map (fun t -> Vtime.to_float_ms (Vtime.sub t fail_at)) !detected

let ablation_detection_threshold () =
  Format.printf "@.Ablation: fault-detection threshold vs detection latency (A5/P4)@.";
  let thresholds = [| 5; 10; 50; 200 |] in
  let results =
    parallel_map ~jobs:!jobs
      (fun threshold ->
        ( detection_latency ~style:Style.Active ~threshold,
          detection_latency ~style:Style.Passive ~threshold ))
      thresholds
  in
  Array.iteri
    (fun i threshold ->
      let a, p = results.(i) in
      let show = function
        | Some ms -> Printf.sprintf "%7.1f ms" ms
        | None -> "   (none)"
      in
      Format.printf "  threshold %4d: active %s   passive %s@." threshold (show a)
        (show p))
    thresholds

let ablation_active_passive_k () =
  Format.printf "@.Ablation: active-passive K on a 4-network fabric (Sec. 7)@.";
  let ks = [| 2; 3 |] in
  let tps =
    parallel_map ~jobs:!jobs
      (fun k ->
        tp_of_point
          (run_point ~num_nodes:4 ~num_nets:4 ~style:(Style.Active_passive k)
             ~size:1024 ()))
      ks
  in
  Array.iteri
    (fun i k -> Format.printf "  K=%d: %8.0f msgs/sec@." k tps.(i).Metrics.msgs_per_sec)
    ks;
  let tp_act =
    tp_of_point (run_point ~num_nodes:4 ~num_nets:4 ~style:Style.Active ~size:1024 ())
  in
  let tp_pas =
    tp_of_point (run_point ~num_nodes:4 ~num_nets:4 ~style:Style.Passive ~size:1024 ())
  in
  Format.printf "  (passive = K=1 limit: %.0f; active = K=4 limit: %.0f)@."
    tp_pas.Metrics.msgs_per_sec tp_act.Metrics.msgs_per_sec

let ablation_packing () =
  Format.printf "@.Ablation: message packing on/off (the 700-byte peak's cause)@.";
  let pack_sizes = [| 100; 400; 700 |] in
  let pairs =
    parallel_map ~jobs:!jobs
      (fun size ->
        let on, _, _ =
          run_point ~num_nodes:4 ~num_nets:2 ~style:Style.No_replication ~size ()
        in
        let const = { Const.default with Const.packing_enabled = false } in
        let off, _, _ =
          run_point ~const ~num_nodes:4 ~num_nets:2 ~style:Style.No_replication
            ~size ()
        in
        (on.Metrics.msgs_per_sec, off.Metrics.msgs_per_sec))
      pack_sizes
  in
  Array.iteri
    (fun i size ->
      let on, off = pairs.(i) in
      Format.printf
        "  %5d bytes: packed %8.0f msgs/sec   unpacked %8.0f msgs/sec (%.1fx)@."
        size on off (Report.ratio on off))
    pack_sizes;
  if !check then begin
    let on, off = pairs.(0) in
    expect "packing wins at small sizes" (on > 1.5 *. off)
      (Printf.sprintf "on=%.0f off=%.0f" on off)
  end

let ablation_window () =
  Format.printf "@.Ablation: flow-control window (packets per rotation)@.";
  let windows = [| 10; 25; 50; 100 |] in
  let tps =
    parallel_map ~jobs:!jobs
      (fun w ->
        let const = { Const.default with Const.window_size = w } in
        tp_of_point
          (run_point ~const ~num_nodes:4 ~num_nets:2 ~style:Style.No_replication
             ~size:1024 ()))
      windows
  in
  Array.iteri
    (fun i w ->
      Format.printf "  window %3d: %8.0f msgs/sec@." w tps.(i).Metrics.msgs_per_sec)
    windows

let ablations () =
  ablation_passive_token_timer ();
  ablation_detection_threshold ();
  ablation_active_passive_k ();
  ablation_packing ();
  ablation_window ()

(* --- Bechamel micro-benchmarks ------------------------------------- *)

let micro () =
  events_note := Some "Bechamel micro-benchmarks; no cluster runs";
  let open Bechamel in
  let msgs =
    List.init 24 (fun i ->
        Totem_srp.Message.make ~origin:0 ~app_seq:i
          ~size:(100 + (i * 53 mod 1400))
          ())
  in
  let const = Const.default in
  let pack_test =
    Test.make ~name:"Packing.pack (24 mixed msgs)"
      (Staged.stage (fun () -> ignore (Totem_srp.Packing.pack const msgs)))
  in
  let store_test =
    Test.make ~name:"Recv_buffer 64x store+pop"
      (Staged.stage (fun () ->
           let b = Totem_srp.Recv_buffer.create () in
           for seq = 1 to 64 do
             ignore
               (Totem_srp.Recv_buffer.store b
                  { Totem_srp.Wire.ring_id = 1; seq; sender = 0; elements = [] })
           done;
           while Totem_srp.Recv_buffer.has_deliverable b do
             ignore (Totem_srp.Recv_buffer.pop_deliverable b)
           done))
  in
  let queue_test =
    Test.make ~name:"Event_queue 256x push/pop"
      (Staged.stage (fun () ->
           let q = Totem_engine.Event_queue.create () in
           for i = 0 to 255 do
             ignore (Totem_engine.Event_queue.push q ~time:(i * 37 mod 101) i)
           done;
           while Totem_engine.Event_queue.pop q <> None do
             ()
           done))
  in
  let wheel_test =
    Test.make ~name:"Timer_wheel 256x arm/cancel"
      (Staged.stage (fun () ->
           let w = Totem_engine.Timer_wheel.create () in
           for i = 0 to 255 do
             let h =
               Totem_engine.Timer_wheel.push w ~time:((i * 37 mod 101) + 1) ~tie:i i
             in
             ignore (Totem_engine.Timer_wheel.cancel w h)
           done))
  in
  let rng_test =
    let rng = Totem_engine.Rng.create ~seed:1 in
    Test.make ~name:"Rng.int 256x"
      (Staged.stage (fun () ->
           for _ = 1 to 256 do
             ignore (Totem_engine.Rng.int rng 1000)
           done))
  in
  let merge_test =
    let a = List.init 100 (fun i -> 2 * i)
    and b = List.init 100 (fun i -> (2 * i) + 1) in
    Test.make ~name:"Retransmit.merge (100+100)"
      (Staged.stage (fun () -> ignore (Totem_srp.Retransmit.merge a b)))
  in
  Format.printf "@.Micro-benchmarks (Bechamel, ns per run):@.";
  (* 0.25 s x 6 tests: the same total quota budget as before the wheel
     micro-benchmark was added (5 x 0.3 s). *)
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg
          Toolkit.Instance.[ monotonic_clock ]
          (Test.make_grouped ~name:"g" [ test ])
      in
      let ols =
        Analyze.all
          (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name o ->
          match Analyze.OLS.estimates o with
          | Some [ est ] -> Format.printf "  %-34s %12.1f ns@." name est
          | _ -> Format.printf "  %-34s (no estimate)@." name)
        ols)
    [ pack_test; store_test; queue_test; wheel_test; rng_test; merge_test ]

(* --- JSON emission ------------------------------------------------- *)

type target_run = {
  tr_name : string;
  tr_events : int;
  tr_events_note : string option;  (* why [tr_events] is 0 *)
  (* GC deltas over the target: allocation pressure is a first-class
     regression axis (compare.exe --max-alloc-regression), and
     [allocated_words] repeats exactly for a given tree whatever ran
     before — for targets that run simulator events; the JSON writes
     the others' deltas as null. With --jobs > 1 worker-domain
     allocation is not counted, so alloc-gated baselines should be cut
     at --jobs 1. *)
  tr_alloc_words : float;
  tr_minor_collections : int;
  (* Exchange window counters summed over the target's partitioned
     clusters; all zero for legacy (sim-domains 0) targets. *)
  tr_windows_run : int;
  tr_windows_batched : int;
  tr_windows_widened : int;
}

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* NaN (empty histogram) becomes null; an overflow-bucket edge becomes
   the string "inf", matching the telemetry metrics exporter. *)
let json_num f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "\"inf\""
  else Printf.sprintf "%.6g" f

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

(* Collapse one style's per-size telemetry into a single block: rotation
   histograms merged bucket-wise, counters summed, and the
   problemCounter trajectory taken from the paper's headline 1024-byte
   point. *)
let merge_style_telemetry (pts : Metrics.point_telemetry array) =
  let merged = ref [||] in
  Array.iter
    (fun pt ->
      let d = pt.Metrics.pt_rotation_buckets in
      if Array.length !merged = 0 then merged := Array.copy d
      else
        Array.iteri
          (fun i (le, c) ->
            let _, c0 = !merged.(i) in
            !merged.(i) <- (le, c0 + c))
          d)
    pts;
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 !merged in
  let sum f = Array.fold_left (fun acc pt -> acc + f pt) 0 pts in
  let trajectory =
    let i = idx_of_size 1024 in
    if i >= 0 && i < Array.length pts then pts.(i).Metrics.pt_trajectory else []
  in
  {
    Metrics.pt_rotation_count = total;
    pt_rotation_p50 = quantile_of_dump !merged total 0.5;
    pt_rotation_p90 = quantile_of_dump !merged total 0.9;
    pt_rotation_p99 = quantile_of_dump !merged total 0.99;
    pt_rotation_buckets = !merged;
    pt_retransmits_served = sum (fun pt -> pt.Metrics.pt_retransmits_served);
    pt_retransmits_requested = sum (fun pt -> pt.Metrics.pt_retransmits_requested);
    pt_token_retransmits = sum (fun pt -> pt.Metrics.pt_token_retransmits);
    pt_duplicate_packets = sum (fun pt -> pt.Metrics.pt_duplicate_packets);
    pt_duplicate_tokens = sum (fun pt -> pt.Metrics.pt_duplicate_tokens);
    pt_trajectory = trajectory;
  }

let write_json path runs =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let emit_buckets label buckets =
    let non_empty =
      Array.to_list buckets |> List.filter (fun (_, c) -> c > 0)
    in
    pf "            \"%s\": [" label;
    List.iteri
      (fun i (le, c) ->
        pf "%s{\"le_ms\": %s, \"n\": %d}"
          (if i = 0 then "" else ", ")
          (json_num le) c)
      non_empty;
    pf "]"
  in
  let emit_telemetry (pt : Metrics.point_telemetry) =
    pf "          \"telemetry\": {\n";
    pf "            \"rotation_count\": %d,\n" pt.Metrics.pt_rotation_count;
    pf "            \"rotation_p50_ms\": %s,\n" (json_num pt.Metrics.pt_rotation_p50);
    pf "            \"rotation_p90_ms\": %s,\n" (json_num pt.Metrics.pt_rotation_p90);
    pf "            \"rotation_p99_ms\": %s,\n" (json_num pt.Metrics.pt_rotation_p99);
    emit_buckets "rotation_buckets" pt.Metrics.pt_rotation_buckets;
    pf ",\n";
    pf "            \"retransmits_served\": %d,\n" pt.Metrics.pt_retransmits_served;
    pf "            \"retransmits_requested\": %d,\n"
      pt.Metrics.pt_retransmits_requested;
    pf "            \"token_retransmits\": %d,\n" pt.Metrics.pt_token_retransmits;
    pf "            \"duplicate_packets\": %d,\n" pt.Metrics.pt_duplicate_packets;
    pf "            \"duplicate_tokens\": %d,\n" pt.Metrics.pt_duplicate_tokens;
    pf "            \"problem_trajectory\": [";
    List.iteri
      (fun i (t_ms, nets) ->
        pf "%s{\"t_ms\": %s, \"worst\": [%s]}"
          (if i = 0 then "" else ", ")
          (json_num t_ms)
          (String.concat ", "
             (Array.to_list (Array.map string_of_int nets))))
      pt.Metrics.pt_trajectory;
    pf "]\n";
    pf "          }"
  in
  pf "{\n";
  pf "  \"schema\": \"totem-bench/v1\",\n";
  pf "  \"quick\": %b,\n" !quick;
  pf "  \"jobs\": %d,\n" !jobs;
  pf "  \"sim_domains\": %d,\n" !sim_domains;
  pf "  \"targets\": [\n";
  let emit_target i t =
    let { tr_name; tr_events; _ } = t in
    pf "    {\n";
    pf "      \"name\": \"%s\",\n" (json_escape tr_name);
    if tr_events > 0 then pf "      \"sim_events\": %d,\n" tr_events
    else begin
      pf "      \"sim_events\": null,\n";
      pf "      \"events_note\": \"%s\",\n"
        (json_escape
           (Option.value t.tr_events_note ~default:"ran no simulator events"))
    end;
    (* A target with no simulator events (micro: Bechamel runs each test
       until a wall-clock quota) allocates as much as the host's speed
       lets it, so its GC deltas are not counts; null, like its events,
       with the note above saying why. *)
    pf "      \"gc\": {\n";
    if tr_events > 0 then begin
      pf "        \"allocated_words\": %.0f,\n" t.tr_alloc_words;
      pf "        \"minor_collections\": %d,\n" t.tr_minor_collections
    end
    else begin
      pf "        \"allocated_words\": null,\n";
      pf "        \"minor_collections\": null,\n"
    end;
    pf "        \"words_per_event\": %s\n"
      (json_num
         (if tr_events > 0 then
            t.tr_alloc_words /. float_of_int tr_events
          else nan));
    pf "      }";
    if t.tr_windows_run > 0 then begin
      pf ",\n      \"exchange\": {\n";
      pf "        \"windows_run\": %d,\n" t.tr_windows_run;
      pf "        \"windows_batched\": %d,\n" t.tr_windows_batched;
      pf "        \"windows_widened\": %d\n" t.tr_windows_widened;
      pf "      }"
    end;
    (match Hashtbl.find_opt fig_results tr_name with
    | None -> ()
    | Some series ->
      pf ",\n      \"series\": [\n";
      List.iteri
        (fun si (style, pts) ->
          pf "        {\n          \"style\": \"%s\",\n          \"points\": [\n"
            (json_escape style);
          Array.iteri
            (fun pi ((p : Metrics.throughput), _) ->
              pf
                "            {\"bytes\": %d, \"msgs_per_sec\": %.2f, \
                 \"kbytes_per_sec\": %.2f}%s\n"
                sizes.(pi) p.Metrics.msgs_per_sec p.Metrics.kbytes_per_sec
                (if pi < Array.length pts - 1 then "," else ""))
            pts;
          pf "          ],\n";
          emit_telemetry (merge_style_telemetry (Array.map snd pts));
          pf "\n        }%s\n" (if si < List.length series - 1 then "," else ""))
        series;
      pf "      ]");
    if tr_name = "latency" && !latency_results <> [] then begin
      pf ",\n      \"latency\": [\n";
      let n = List.length !latency_results in
      List.iteri
        (fun i (style, probe) ->
          (* empty probes (n=0) emit explicit nulls, never nan *)
          let mean =
            match Metrics.latency_summary probe with
            | Some s -> json_num (Stats.Summary.mean s)
            | None -> "null"
          in
          let q p =
            match Metrics.latency_quantile probe p with
            | Some v -> json_num v
            | None -> "null"
          in
          pf "        {\n          \"style\": \"%s\",\n" (json_escape style);
          pf "          \"count\": %d,\n" (Metrics.latency_count probe);
          pf "          \"mean_ms\": %s,\n" mean;
          pf "          \"p50_ms\": %s,\n" (q 0.5);
          pf "          \"p90_ms\": %s,\n" (q 0.9);
          pf "          \"p99_ms\": %s,\n" (q 0.99);
          pf "          \"p999_ms\": %s,\n" (q 0.999);
          emit_buckets "histogram" (Metrics.latency_histogram_dump probe);
          pf "\n        }%s\n" (if i < n - 1 then "," else ""))
        !latency_results;
      pf "      ]"
    end;
    if tr_name = "soak" && !soak_results <> [] then begin
      pf ",\n      \"soak\": [\n";
      let n = List.length !soak_results in
      List.iteri
        (fun i p ->
          pf
            "        {\"phase\": \"%s\", \"msgs_per_sec\": %.2f, \"count\": \
             %d, \"p50_ms\": %s, \"p90_ms\": %s, \"p99_ms\": %s, \"p999_ms\": \
             %s, \"net0\": \"%s\"}%s\n"
            (json_escape p.sp_name) p.sp_msgs_per_sec p.sp_count
            (json_num p.sp_p50) (json_num p.sp_p90) (json_num p.sp_p99)
            (json_num p.sp_p999) (json_escape p.sp_net0)
            (if i < n - 1 then "," else ""))
        !soak_results;
      pf "      ]"
    end;
    pf "\n    }%s\n" (if i < List.length runs - 1 then "," else "")
  in
  List.iteri emit_target runs;
  pf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.(wrote %s)@." path

(* --- driver -------------------------------------------------------- *)

let all_targets =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("wire", wire);
    ("parallel-smoke", parallel_smoke);
    ("perf-smoke", perf_smoke);
    ("soak", soak);
    ("soak-smoke", soak_smoke);
    ("headline", headline);
    ("claims", claims);
    ("latency", latency);
    ("ablations", ablations);
    ("micro", micro);
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let after ~prefix s = String.sub s (String.length prefix) (String.length s - String.length prefix)

(* Every value-carrying option accepts both spellings — "--flag V" and
   "--flag=V" — through this one helper, so a new flag is a single
   table entry rather than two more match arms. Returns the remaining
   argv when [arg] was the option (consuming the value), None
   otherwise. *)
let consume_option ~name ~set arg rest =
  let prefix = name ^ "=" in
  if arg = name then
    match rest with
    | v :: rest ->
      set v;
      Some rest
    | [] -> failwith (name ^ " needs a value")
  else if starts_with ~prefix arg then begin
    set (after ~prefix arg);
    Some rest
  end
  else None

let value_options =
  [
    ("--jobs", fun v -> jobs := int_of_string v);
    ("--sim-domains", fun v -> sim_domains := int_of_string v);
    ("--json", fun v -> json_path := Some v);
    ("--csv", fun v -> csv_dir := Some v);
  ]

let () =
  let rec parse = function
    | [] -> []
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--check" :: rest ->
      check := true;
      parse rest
    | a :: rest -> (
      let consumed =
        List.find_map
          (fun (name, set) -> consume_option ~name ~set a rest)
          value_options
      in
      match consumed with
      | Some rest -> parse rest
      | None -> a :: parse rest)
  in
  let args = parse (List.tl (Array.to_list Sys.argv)) in
  if !jobs < 1 then failwith "--jobs must be >= 1";
  if !sim_domains < 0 then failwith "--sim-domains must be >= 0";
  let targets =
    if args = [] || List.mem "all" args then List.map fst all_targets else args
  in
  (* A misspelt target fails before anything runs, so a typo in a dune
     rule cannot pass by doing nothing. *)
  (match List.filter (fun t -> not (List.mem_assoc t all_targets)) targets with
  | [] -> ()
  | unknown ->
    Format.eprintf "unknown target%s %s (known: %s all)@."
      (if List.length unknown > 1 then "s" else "")
      (String.concat " " unknown)
      (String.concat " " (List.map fst all_targets));
    exit 2);
  let runs = ref [] in
  List.iter
    (fun t ->
      let f = List.assoc t all_targets in
      Format.printf "@.=== %s ===@." t;
      let ev0 = Atomic.get events_total in
      events_note := None;
      let wr0 = Atomic.get windows_run_total in
      let wb0 = Atomic.get windows_batched_total in
      let ww0 = Atomic.get windows_widened_total in
      let g0 = Gc.quick_stat () and a0 = allocated_words () in
      f ();
      let g1 = Gc.quick_stat () and a1 = allocated_words () in
      let events = Atomic.get events_total - ev0 in
      runs :=
        {
          tr_name = t;
          tr_events = events;
          tr_events_note = !events_note;
          tr_alloc_words = a1 -. a0;
          tr_minor_collections =
            g1.Gc.minor_collections - g0.Gc.minor_collections;
          tr_windows_run = Atomic.get windows_run_total - wr0;
          tr_windows_batched = Atomic.get windows_batched_total - wb0;
          tr_windows_widened = Atomic.get windows_widened_total - ww0;
        }
        :: !runs)
    targets;
  (match !json_path with
  | Some path -> write_json path (List.rev !runs)
  | None -> ());
  if !check then
    if !failures = [] then Format.printf "@.All shape checks passed.@."
    else begin
      Format.printf "@.%d shape checks FAILED.@." (List.length !failures);
      exit 1
    end
