(* totem-sim: command-line driver for the simulated Totem RRP testbed.

   Subcommands:
     throughput   measure saturated throughput for one configuration
     failover     run a fault-injection timeline and report the outcome
     latency      measure end-to-end delivery latency under light load
     trace        run briefly with protocol tracing and dump the events
     chaos        drive random fault campaigns under the online invariant
                  monitors; shrink and replay counterexamples
     mc           bounded exhaustive model checking: every interleaving of a
                  small chaos-op alphabet, with state-fingerprint pruning,
                  plus an arbitrary-state self-stabilization mode *)

module Cluster = Totem_cluster.Cluster
module Config = Totem_cluster.Config
module Workload = Totem_cluster.Workload
module Metrics = Totem_cluster.Metrics
module Scenario = Totem_cluster.Scenario
module Style = Totem_rrp.Style
module Vtime = Totem_engine.Vtime
open Cmdliner

(* --- shared options ------------------------------------------------ *)

let style_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "none" | "single" | "no-replication" -> Ok Style.No_replication
    | "active" -> Ok Style.Active
    | "passive" -> Ok Style.Passive
    | s when String.length s > 3 && String.sub s 0 3 = "ap:" -> (
      try
        Ok (Style.Active_passive (int_of_string (String.sub s 3 (String.length s - 3))))
      with _ -> Error (`Msg "expected ap:<K>"))
    | _ -> Error (`Msg "expected none|active|passive|ap:<K>")
  in
  let print ppf = function
    | Style.No_replication -> Format.pp_print_string ppf "none"
    | Style.Active -> Format.pp_print_string ppf "active"
    | Style.Passive -> Format.pp_print_string ppf "passive"
    | Style.Active_passive k -> Format.fprintf ppf "ap:%d" k
  in
  Arg.conv (parse, print)

let style_t =
  Arg.(
    value
    & opt style_conv Style.Passive
    & info [ "style"; "r" ] ~docv:"STYLE"
        ~doc:"Replication style: none, active, passive, or ap:K.")

let nodes_t =
  Arg.(value & opt int 4 & info [ "nodes"; "n" ] ~docv:"M" ~doc:"Number of nodes.")

let nets_t =
  Arg.(
    value & opt int 2 & info [ "nets" ] ~docv:"N" ~doc:"Number of redundant networks.")

let size_t =
  Arg.(value & opt int 1024 & info [ "size"; "s" ] ~docv:"BYTES" ~doc:"Message size.")

let seconds_t =
  Arg.(
    value & opt float 1.0
    & info [ "seconds"; "d" ] ~docv:"S" ~doc:"Simulated measurement duration.")

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let loss_t =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P" ~doc:"Sporadic frame-loss probability on every network.")

let wire_bytes_t =
  Arg.(
    value & flag
    & info [ "wire-bytes" ]
        ~doc:
          "Byte-faithful wire mode: serialize every payload through the \
           binary codec with a CRC-32 trailer at the sending NIC; the \
           receiving NIC CRC-checks and totally decodes it, discarding \
           damaged frames exactly as loss.")

let sim_domains_t =
  Arg.(
    value & opt int 0
    & info [ "sim-domains" ] ~docv:"N"
        ~doc:
          "Parallel simulator core: partition the cluster into one event \
           domain per node plus a coordinator, synchronized by \
           conservative lookahead and executed on $(docv) OCaml domains. \
           0 (the default) keeps the classic single-simulator loop; all \
           $(docv) >= 1 produce bitwise-identical figures and telemetry.")

let corrupt_t =
  Arg.(
    value & opt float 0.0
    & info [ "corrupt" ] ~docv:"P"
        ~doc:
          "Per-frame in-flight corruption probability on every network \
           (bit flips, truncation, garbage; bit-accurate under \
           $(b,--wire-bytes)).")

let style_name = function
  | Style.No_replication -> "none"
  | Style.Active -> "active"
  | Style.Passive -> "passive"
  | Style.Active_passive k -> Printf.sprintf "active-passive K=%d" k

let make_cluster ?(wire = false) ?(sim_domains = 0) ~style ~nodes ~nets ~seed
    () =
  let config =
    Config.make ~num_nodes:nodes ~num_nets:nets ~style ~seed ~wire_bytes:wire
      ~sim_domains ()
  in
  Cluster.create config

(* --- throughput ----------------------------------------------------- *)

(* "-" routes machine-readable output to stdout (and suppresses the
   human-readable report so the stream stays parseable). *)
let open_sink = function
  | "-" -> (stdout, false)
  | path -> (open_out path, true)

let close_sink (oc, owned) = if owned then close_out oc else flush oc

let throughput style nodes nets size seconds seed loss wire sim_domains corrupt
    trace_out metrics_out =
  let cluster = make_cluster ~wire ~sim_domains ~style ~nodes ~nets ~seed () in
  let telemetry = Cluster.telemetry cluster in
  let trace_sink = Option.map open_sink trace_out in
  (match trace_sink with
  | Some (oc, _) ->
    Totem_engine.Telemetry.set_sink telemetry
      (Totem_engine.Telemetry.jsonl_sink oc)
  | None -> ());
  let quiet = trace_out = Some "-" || metrics_out = Some "-" in
  Cluster.start cluster;
  if loss > 0.0 then
    for net = 0 to nets - 1 do
      Cluster.set_network_loss cluster net loss
    done;
  if corrupt > 0.0 then
    for net = 0 to nets - 1 do
      Cluster.set_network_corruption cluster net corrupt
    done;
  Workload.saturate cluster ~size;
  let tp =
    Metrics.measure_throughput cluster ~warmup:(Vtime.ms 300)
      ~duration:(Vtime.of_float_sec seconds)
  in
  if not quiet then begin
    Format.printf "style=%s nodes=%d nets=%d size=%dB loss=%.2f%s%s@."
      (style_name style) nodes nets size loss
      (if wire then " wire-bytes" else "")
      (if corrupt > 0.0 then Printf.sprintf " corrupt=%.2f" corrupt else "");
    Format.printf "throughput: %.0f msgs/sec, %.0f Kbytes/sec@."
      tp.Metrics.msgs_per_sec tp.Metrics.kbytes_per_sec;
    Totem_cluster.Net_report.print cluster;
    Totem_cluster.Net_report.print_protocol cluster
  end;
  (match trace_sink with
  | Some sink ->
    Totem_engine.Telemetry.clear_sink telemetry;
    close_sink sink
  | None -> ());
  (match metrics_out with
  | Some path ->
    let sink = open_sink path in
    output_string (fst sink) (Totem_engine.Telemetry.metrics_json telemetry);
    close_sink sink
  | None -> ());
  Cluster.shutdown cluster

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream every structured trace event as one JSON line to $(docv) \
           (\"-\" for stdout, which suppresses the human-readable report).")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the telemetry registry (counters, gauges, histograms) as \
           JSON to $(docv) (\"-\" for stdout, which suppresses the \
           human-readable report).")

let throughput_cmd =
  let doc = "Measure saturated throughput (the Sec. 8 experiment, one point)." in
  Cmd.v
    (Cmd.info "throughput" ~doc)
    Term.(
      const throughput $ style_t $ nodes_t $ nets_t $ size_t $ seconds_t $ seed_t
      $ loss_t $ wire_bytes_t $ sim_domains_t $ corrupt_t $ trace_out_t
      $ metrics_out_t)

(* --- failover -------------------------------------------------------- *)

let failover style nodes nets seed fail_at heal_at =
  let cluster = make_cluster ~style ~nodes ~nets ~seed () in
  Cluster.on_fault_report cluster (fun node report ->
      Format.printf "[%a] ALARM at node %d: %a@." Vtime.pp (Cluster.now cluster) node
        Totem_rrp.Fault_report.pp report);
  let ring_changes = ref 0 in
  Cluster.on_ring_change cluster (fun _ ~ring_id:_ ~members:_ -> incr ring_changes);
  Cluster.start cluster;
  Workload.saturate cluster ~size:1024;
  let initial = !ring_changes in
  Scenario.schedule cluster
    ([ (Vtime.of_float_sec fail_at, Scenario.Fail_network 0) ]
    @
    match heal_at with
    | Some h -> [ (Vtime.of_float_sec h, Scenario.Heal_network 0) ]
    | None -> []);
  let watch label d =
    let b = Cluster.delivered_at cluster 0 in
    Cluster.run_for cluster d;
    Format.printf "%-22s %8.0f msgs/sec@." label
      (float_of_int (Cluster.delivered_at cluster 0 - b) /. Vtime.to_float_sec d)
  in
  watch "before failure:" (Vtime.of_float_sec fail_at);
  watch "during failure:" (Vtime.sec 2);
  (match heal_at with Some _ -> watch "after repair:" (Vtime.sec 1) | None -> ());
  Format.printf "membership changes caused by the network fault: %d@."
    (!ring_changes - initial);
  Totem_cluster.Net_report.print cluster

let fail_at_t =
  Arg.(
    value & opt float 1.0
    & info [ "fail-at" ] ~docv:"S" ~doc:"When network 0 fails (simulated seconds).")

let heal_at_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "heal-at" ] ~docv:"S" ~doc:"When the administrator repairs it.")

let failover_cmd =
  let doc = "Fail a network mid-run; show transparency and fault reports." in
  Cmd.v (Cmd.info "failover" ~doc)
    Term.(const failover $ style_t $ nodes_t $ nets_t $ seed_t $ fail_at_t $ heal_at_t)

(* --- latency --------------------------------------------------------- *)

let latency style nodes nets size seed =
  let cluster = make_cluster ~style ~nodes ~nets ~seed () in
  Cluster.start cluster;
  let probe = Metrics.install_latency cluster in
  Workload.fixed_rate cluster ~node:0 ~size ~interval:(Vtime.ms 5) ~count:500 ();
  Cluster.run_for cluster (Vtime.sec 4);
  (match Metrics.latency_summary probe with
  | None -> Format.printf "style=%s: no deliveries recorded@." (style_name style)
  | Some s ->
    Format.printf
      "style=%s: latency over %d deliveries: mean %.3f ms, min %.3f, max %.3f, sd %.3f@."
      (style_name style)
      (Totem_engine.Stats.Summary.count s)
      (Totem_engine.Stats.Summary.mean s)
      (Totem_engine.Stats.Summary.min s)
      (Totem_engine.Stats.Summary.max s)
      (Totem_engine.Stats.Summary.stddev s))

let latency_cmd =
  let doc = "Measure submission-to-delivery latency under light load." in
  Cmd.v (Cmd.info "latency" ~doc)
    Term.(const latency $ style_t $ nodes_t $ nets_t $ size_t $ seed_t)

(* --- trace ----------------------------------------------------------- *)

let trace style nodes nets seed millis jsonl spans wire sim_domains causal_out
    recorder_out recorder_capacity =
  let cluster = make_cluster ~wire ~sim_domains ~style ~nodes ~nets ~seed () in
  let telemetry = Cluster.telemetry cluster in
  Totem_engine.Telemetry.set_tracing telemetry true;
  let causal =
    Option.map (fun _ -> fst (Totem_engine.Causal.attach telemetry)) causal_out
  in
  let recorder =
    Option.map
      (fun _ ->
        Totem_engine.Recorder.attach ~capacity:recorder_capacity ~nodes telemetry)
      recorder_out
  in
  Cluster.start cluster;
  for node = 0 to nodes - 1 do
    Totem_srp.Srp.submit (Cluster.srp (Cluster.node cluster node)) ~size:256 ()
  done;
  Cluster.run_for cluster (Vtime.ms millis);
  (match (causal_out, causal) with
  | Some path, Some c ->
    let sink = open_sink path in
    output_string (fst sink) (Totem_engine.Causal.chrome_json c);
    close_sink sink;
    let probe = Metrics.probe_of_causal c in
    let n = Metrics.latency_count probe in
    if n > 0 then
      let q p =
        Option.value ~default:Float.nan (Metrics.latency_quantile probe p)
      in
      Format.eprintf
        "causal: %d messages, %d per-node deliveries: p50 %.3f ms, p99 %.3f ms@."
        (List.length (Totem_engine.Causal.records c))
        n (q 0.5) (q 0.99)
  | _ -> ());
  (match (recorder_out, recorder) with
  | Some path, Some r ->
    let oc, owned = open_sink path in
    List.iter
      (fun (node, lines) ->
        List.iter
          (fun line -> Printf.fprintf oc "{\"node\":%d,\"event\":%s}\n" node line)
          lines)
      (Totem_engine.Recorder.dump_jsonl r);
    close_sink (oc, owned)
  | _ -> ());
  (* "-" routes a machine-readable stream to stdout; keep it parseable by
     suppressing the default text dump, like the throughput command. *)
  let stdout_taken = causal_out = Some "-" || recorder_out = Some "-" in
  if jsonl then Totem_engine.Telemetry.write_jsonl stdout telemetry
  else if spans then
    Totem_engine.Telemetry.pp_spans Format.std_formatter
      (Totem_engine.Telemetry.token_spans telemetry)
  else if not stdout_taken then
    Seq.iter
      (fun { Totem_engine.Telemetry.time; event } ->
        Format.printf "[%a] %-12s %s@." Vtime.pp time
          (Totem_engine.Telemetry.component_of event)
          (Totem_engine.Telemetry.message_of event))
      (Totem_engine.Telemetry.events_seq telemetry);
  Cluster.shutdown cluster

let millis_t =
  Arg.(
    value & opt int 5
    & info [ "millis"; "t" ] ~docv:"MS" ~doc:"How long to run (simulated milliseconds).")

let jsonl_t =
  Arg.(
    value & flag
    & info [ "jsonl" ] ~doc:"Dump the event ring as JSON lines instead of text.")

let spans_t =
  Arg.(
    value & flag
    & info [ "spans" ]
        ~doc:
          "Render the token-rotation span view (one bar per rotation, \
           nested retransmit/hold activity) instead of the flat log.")

let causal_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "causal-out" ] ~docv:"PATH"
        ~doc:
          "Reconstruct the causal trace of every client message — \
           origination, ordering, per-network packet hops, retransmits, \
           per-node delivery — and write it as Chrome trace_event JSON \
           to $(docv) (\"-\" = stdout; open in chrome://tracing or \
           Perfetto). Also prints a latency summary derived from the \
           same spans.")

let recorder_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "recorder-out" ] ~docv:"PATH"
        ~doc:
          "Arm the per-node flight recorder and dump its rings at the \
           end of the run as JSON lines ({\"node\":N,\"event\":...}, \
           node -1 = fabric-level events) to $(docv) (\"-\" = stdout).")

let recorder_capacity_t =
  Arg.(
    value & opt int 64
    & info [ "recorder-capacity" ] ~docv:"N"
        ~doc:"Flight-recorder ring capacity per node (most recent $(docv) events).")

let trace_cmd =
  let doc = "Run briefly with protocol tracing enabled and dump the log." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace $ style_t $ nodes_t $ nets_t $ seed_t $ millis_t $ jsonl_t
      $ spans_t $ wire_bytes_t $ sim_domains_t $ causal_out_t $ recorder_out_t
      $ recorder_capacity_t)

(* --- sweep ------------------------------------------------------------ *)

let sweep style nodes nets seconds seed sim_domains csv =
  let sizes = [| 100; 200; 400; 700; 1024; 1400; 2048; 4096; 8192; 10240 |] in
  let rates =
    Array.map
      (fun size ->
        let cluster = make_cluster ~sim_domains ~style ~nodes ~nets ~seed () in
        Cluster.start cluster;
        Workload.saturate cluster ~size;
        let tp =
          Metrics.measure_throughput cluster ~warmup:(Vtime.ms 300)
            ~duration:(Vtime.of_float_sec seconds)
        in
        Cluster.shutdown cluster;
        (tp.Metrics.msgs_per_sec, tp.Metrics.kbytes_per_sec))
      sizes
  in
  Format.printf "style=%s nodes=%d nets=%d@." (style_name style) nodes nets;
  Format.printf "%-8s %12s %12s@." "bytes" "msgs/sec" "KB/sec";
  Array.iteri
    (fun i size ->
      let m, k = rates.(i) in
      Format.printf "%-8d %12.0f %12.0f@." size m k)
    sizes;
  match csv with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "bytes,msgs_per_sec,kbytes_per_sec\n";
    Array.iteri
      (fun i size ->
        let m, k = rates.(i) in
        output_string oc (Printf.sprintf "%d,%.2f,%.2f\n" size m k))
      sizes;
    close_out oc;
    Format.printf "wrote %s@." path

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the sweep as CSV.")

let sweep_cmd =
  let doc = "Sweep message sizes for one configuration (one figure's series)." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const sweep $ style_t $ nodes_t $ nets_t $ seconds_t $ seed_t
      $ sim_domains_t $ csv_t)

(* --- chaos ------------------------------------------------------------ *)

module Campaign = Totem_chaos.Campaign
module Invariant = Totem_chaos.Invariant
module Runner = Totem_chaos.Runner

let seed_range_conv =
  let parse s =
    match String.index_opt s '.' with
    | Some i
      when i + 1 < String.length s
           && s.[i + 1] = '.'
           && i > 0 ->
      let a = String.sub s 0 i
      and b = String.sub s (i + 2) (String.length s - i - 2) in
      (match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a <= b -> Ok (a, b)
      | _ -> Error (`Msg "expected A..B with A <= B"))
    | _ -> (
      match int_of_string_opt s with
      | Some a -> Ok (a, a)
      | None -> Error (`Msg "expected a seed or a range A..B"))
  in
  let print ppf (a, b) = Format.fprintf ppf "%d..%d" a b in
  Arg.conv (parse, print)

let monitor_config ~token_gap_ms ~lag_limit ~condemn_ms ~sporadic_max =
  {
    Invariant.default with
    Invariant.token_gap =
      (match token_gap_ms with
      | Some ms -> Some (Vtime.ms ms)
      | None -> Invariant.default.Invariant.token_gap);
    lag_limit;
    condemn_within = Option.map Vtime.ms condemn_ms;
    sporadic_loss_max = sporadic_max;
  }

(* Deterministic convergence gate for the reinstatement protocol: a
   flapping network (heavy bursty-loss storms alternating with calm
   windows) must converge to permanently condemned within the flap
   limit. R1 is armed online; probes read each node's reinstatement FSM
   just before the end-of-window administrator heal. *)
let flap_gate ~quiet ~sim_domains =
  let flap_limit =
    Totem_rrp.Rrp_config.default.Totem_rrp.Rrp_config.reinstate_flap_limit
  in
  let num_nodes = 4 in
  let from_ = Vtime.ms 200 in
  let storm = Vtime.ms 600 in
  let calm = Vtime.ms 1400 in
  (* More storms than the damping allows probes: the tail cycles must
     find the network already permanently condemned. *)
  let cycles = flap_limit + 2 in
  let steps = Campaign.flap_storm ~net:0 ~from_ ~cycles ~storm ~calm in
  let duration = from_ + (cycles * (storm + calm)) + Vtime.ms 400 in
  let campaign =
    Campaign.make ~num_nodes ~num_nets:2 ~style:Style.Passive ~seed:7 ~duration
      ~quiesce:(Vtime.ms 3000)
      ~traffic:(Campaign.Saturate 512) ~reinstate:true steps
  in
  let monitor =
    { Invariant.default with Invariant.flap_limit = Some flap_limit }
  in
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun m -> failures := m :: !failures) fmt in
  let probe cluster =
    for node = 0 to num_nodes - 1 do
      let rrp = Cluster.rrp (Cluster.node cluster node) in
      let state = Totem_rrp.Rrp.net_state_string rrp ~net:0 in
      let flaps = Totem_rrp.Rrp.flaps rrp ~net:0 in
      if state <> "condemned" then
        fail "node %d: net 0 ended %s, expected condemned (flaps %d)" node
          state flaps;
      if flaps < 1 || flaps > flap_limit then
        fail "node %d: net 0 flap count %d outside [1, %d]" node flaps
          flap_limit
    done
  in
  let r = Runner.run ~monitor ~sim_domains ~probes:[ (duration, probe) ] campaign in
  List.iter
    (fun v -> Format.printf "flap-gate: %a@." Invariant.pp_violation v)
    r.Runner.violations;
  List.iter (fun m -> Format.printf "flap-gate: %s@." m) (List.rev !failures);
  if r.Runner.violations <> [] || !failures <> [] then exit 1
  else if not quiet then
    Format.printf
      "flap-gate: %d storm/calm cycles on net 0: every node converged to \
       condemned within %d flaps@."
      cycles flap_limit

let chaos seed_range replay_path out_dir duration_ms quiesce_ms no_shrink quiet
    token_gap_ms lag_limit condemn_ms sporadic_max wire shadow sim_domains gray
    gate =
  if gate then flap_gate ~quiet ~sim_domains
  else
  match replay_path with
  | Some path -> (
    match Runner.replay_file ~path with
    | Error m ->
      Format.eprintf "chaos: %s@." m;
      exit 2
    | Ok (Runner.Reproduced r) ->
      Format.printf "reproduced: %a@."
        Invariant.pp_violation (List.hd r.Runner.violations);
      exit 0
    | Ok (Runner.Clean_replay r) ->
      Format.printf "clean replay: %a@." Runner.pp_result r;
      exit 0
    | Ok (Runner.Diverged (_, why)) ->
      Format.printf "DIVERGED: %s@." why;
      exit 1)
  | None ->
    let lo, hi = seed_range in
    let monitor =
      let base =
        monitor_config ~token_gap_ms ~lag_limit ~condemn_ms ~sporadic_max
      in
      if gray then
        {
          base with
          Invariant.flap_limit =
            Some
              Totem_rrp.Rrp_config.default
                .Totem_rrp.Rrp_config.reinstate_flap_limit;
        }
      else base
    in
    let failures = ref 0 in
    for seed = lo to hi do
      let campaign =
        Campaign.random ~seed ~duration:(Vtime.ms duration_ms)
          ~quiesce:(Vtime.ms quiesce_ms) ~wire ~corrupt:wire ~gray ()
      in
      let r = Runner.run ~monitor ~shadow ~sim_domains campaign in
      (match r.Runner.violations with
      | [] ->
        if not quiet then Format.printf "seed %d: %a@." seed Runner.pp_result r
      | violation :: _ ->
        incr failures;
        Format.printf "seed %d: %a@." seed Invariant.pp_violation violation;
        let cx_campaign, shrunk =
          if no_shrink then (campaign, false)
          else begin
            let s = Runner.shrink ~monitor campaign violation in
            Format.printf
              "seed %d: shrunk %d steps -> %d in %d re-executions@." seed
              s.Runner.original_steps s.Runner.minimized_steps s.Runner.runs_used;
            (s.Runner.minimized, true)
          end
        in
        (* Re-run the minimized campaign so the recorded violation is the
           one the file reproduces. *)
        let final = Runner.run ~monitor cx_campaign in
        let path = Filename.concat out_dir (Printf.sprintf "seed%d.chaos.json" seed) in
        Runner.write_counterexample ~path
          {
            Runner.cx_campaign;
            cx_monitor = monitor;
            cx_violation =
              (match final.Runner.violations with v :: _ -> Some v | [] -> None);
            cx_shrunk = shrunk;
            cx_history = Runner.history_json final;
          };
        Format.printf "seed %d: wrote %s@." seed path)
    done;
    if !failures > 0 then begin
      Format.printf "%d of %d campaigns violated an invariant@." !failures
        (hi - lo + 1);
      exit 1
    end
    else if not quiet then
      Format.printf "%d campaigns, zero invariant violations@." (hi - lo + 1)

let seed_range_t =
  Arg.(
    value
    & opt seed_range_conv (1, 8)
    & info [ "seed-range" ] ~docv:"A..B"
        ~doc:"Run one random campaign per seed in the inclusive range.")

let replay_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"PATH"
        ~doc:
          "Re-execute the counterexample file bit-for-bit and report \
           whether the recorded violation reproduces.")

let out_dir_t =
  Arg.(
    value & opt string "."
    & info [ "out" ] ~docv:"DIR" ~doc:"Where counterexample files are written.")

let duration_ms_t =
  Arg.(
    value & opt int 2000
    & info [ "duration-ms" ] ~docv:"MS"
        ~doc:"Fault-and-traffic window of each campaign (simulated).")

let quiesce_ms_t =
  Arg.(
    value & opt int 5000
    & info [ "quiesce-ms" ] ~docv:"MS"
        ~doc:"Heal-and-drain tail before the end-of-run checks.")

let no_shrink_t =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:
          "Write counterexamples without delta-debugging them first \
           (marked shrunk=false; chaos-smoke rejects such files in-tree).")

let quiet_t =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Only report violations.")

let token_gap_ms_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "token-gap-ms" ] ~docv:"MS"
        ~doc:
          "Token-liveness bound: max simulated time without any token \
           reception (default 250).")

let lag_limit_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "lag-limit" ] ~docv:"N"
        ~doc:
          "Arm the P4/P5 check: a never-faulted network may lag at most \
           $(docv) receptions behind the best network.")

let condemn_ms_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "condemn-ms" ] ~docv:"MS"
        ~doc:
          "Arm the A6 check: a fully-failed network must be condemned \
           within $(docv) of downtime.")

let sporadic_max_t =
  Arg.(
    value & opt float 0.0
    & info [ "sporadic-max" ] ~docv:"P"
        ~doc:
          "Injected loss at or below $(docv) still counts a network as \
           never-faulted for the A5 check.")

let chaos_wire_t =
  Arg.(
    value & flag
    & info [ "wire-bytes" ]
        ~doc:
          "Generate byte-wire campaigns: the cluster runs with serialized \
           CRC-checked payloads, and the random fault timeline additionally \
           draws corruption windows and ramps.")

let chaos_shadow_t =
  Arg.(
    value & flag
    & info [ "shadow" ]
        ~doc:
          "Round-trip every frame through the binary codec during the run \
           and abort on any mismatch (testing aid; under $(b,--wire-bytes) \
           the check runs on what the receiving NIC decoded).")

let chaos_gray_t =
  Arg.(
    value & flag
    & info [ "gray" ]
        ~doc:
          "Generate gray-failure campaigns: the random fault timeline \
           additionally draws Gilbert-Elliott bursty-loss windows and ramps \
           and directional loss, the cluster runs with the \
           condemned-network reinstatement protocol on, and the R1 \
           flap-damping invariant is armed.")

let flap_gate_t =
  Arg.(
    value & flag
    & info [ "flap-gate" ]
        ~doc:
          "Run the deterministic reinstatement convergence gate instead of \
           random campaigns: a flapping network (bursty-loss storms \
           alternating with calm) must end permanently condemned at every \
           node within the flap limit, with R1 armed online.")

let chaos_cmd =
  let doc =
    "Run random fault campaigns under online invariant monitors; shrink \
     and replay counterexamples."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const chaos $ seed_range_t $ replay_t $ out_dir_t $ duration_ms_t
      $ quiesce_ms_t $ no_shrink_t $ quiet_t $ token_gap_ms_t $ lag_limit_t
      $ condemn_ms_t $ sporadic_max_t $ chaos_wire_t $ chaos_shadow_t
      $ sim_domains_t $ chaos_gray_t $ flap_gate_t)

(* --- mc: bounded exhaustive model checking --------------------------- *)

module Explorer = Totem_chaos.Explorer

let alphabet_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "full" -> Ok `Full
    | "fail-heal" -> Ok `Fail_heal
    | "corrupt" -> Ok `Corrupt
    | "partition" -> Ok `Partition
    | "gray" -> Ok `Gray
    | _ -> Error (`Msg "expected full|fail-heal|corrupt|partition|gray")
  in
  let print ppf k =
    Format.pp_print_string ppf
      (match k with
      | `Full -> "full"
      | `Fail_heal -> "fail-heal"
      | `Corrupt -> "corrupt"
      | `Partition -> "partition"
      | `Gray -> "gray")
  in
  Arg.conv (parse, print)

let mc_alphabet ~kind ~nets =
  let per net =
    match kind with
    | `Full ->
      [
        Campaign.Fail_net net;
        Campaign.Heal_net net;
        Campaign.Set_corrupt (net, 0.5);
        Campaign.Set_corrupt (net, 0.0);
        Campaign.Partition (net, [ 0 ], [ 1 ]);
        Campaign.Unpartition (net, [ 0 ], [ 1 ]);
      ]
    | `Fail_heal -> [ Campaign.Fail_net net; Campaign.Heal_net net ]
    | `Corrupt ->
      [ Campaign.Set_corrupt (net, 0.5); Campaign.Set_corrupt (net, 0.0) ]
    | `Partition ->
      [
        Campaign.Partition (net, [ 0 ], [ 1 ]);
        Campaign.Unpartition (net, [ 0 ], [ 1 ]);
      ]
    | `Gray ->
      [
        Campaign.Set_burst_loss (net, 0.9, 0.1);
        Campaign.Set_burst_loss (net, 0.0, 1.0);
        Campaign.Set_delay_factor (net, 4.0, 0.2);
        Campaign.Set_delay_factor (net, 1.0, 0.0);
        Campaign.Set_dir_loss (net, 0, 1, 0.8);
        Campaign.Set_dir_loss (net, 0, 1, 0.0);
      ]
  in
  List.concat (List.init nets per)

let mc style nodes nets seed depth alphabet_kind alphabet_nets gap_ms settle_ms
    hold_ms quiesce_ms token_gap_ms lag_limit condemn_ms sporadic_max wire
    sim_domains out_dir expect_explored expect_pruned arbitrary_state quiet =
  let monitor =
    monitor_config ~token_gap_ms ~lag_limit ~condemn_ms ~sporadic_max
  in
  try
    let alphabet_nets =
      match alphabet_nets with Some n -> n | None -> nets - 1
    in
    if alphabet_nets < 1 || alphabet_nets >= nets then
      invalid_arg "mc: --alphabet-nets must leave at least one untouched net";
    let alphabet = mc_alphabet ~kind:alphabet_kind ~nets:alphabet_nets in
    let cfg =
      (* The gray alphabet interleaves probation with condemnation, so
         it runs with the reinstatement protocol on (and probation
         state folded into the fingerprint). *)
      Explorer.make ~num_nodes:nodes ~num_nets:nets ~style ~seed ~wire ~depth
        ~alphabet
        ?gap:(Option.map Vtime.ms gap_ms)
        ~settle:(Vtime.ms settle_ms) ~hold:(Vtime.ms hold_ms)
        ~quiesce:(Vtime.ms quiesce_ms) ~monitor ~sim_domains
        ~reinstate:(alphabet_kind = `Gray) ()
    in
    match arbitrary_state with
    | Some points ->
      let rep = Explorer.stabilize cfg ~points in
      if not quiet then
        List.iter
          (fun (t, what) -> Format.printf "%a: %s@." Vtime.pp t what)
          rep.Explorer.s_perturbations;
      if Explorer.stabilized rep then begin
        Format.printf
          "stabilized: %d perturbations absorbed (operational, common ring, \
           delivery progressed)@."
          points;
        exit 0
      end
      else begin
        Format.printf
          "NOT STABILIZED after %d perturbations: operational=%b \
           common-ring=%b progressed=%b, %d monitor violations@."
          points rep.Explorer.s_operational rep.Explorer.s_common_ring
          rep.Explorer.s_progressed
          (List.length rep.Explorer.s_violations);
        List.iter
          (fun v -> Format.printf "  %a@." Invariant.pp_violation v)
          rep.Explorer.s_violations;
        exit 1
      end
    | None -> (
      let o = Explorer.explore cfg in
      let s = o.Explorer.o_stats in
      Format.printf
        "mc %s: depth %d, alphabet %d, gap %a: %d leaves, %d explored, %d \
         pruned, %d distinct states, %d prefix runs@."
        (style_name style) depth s.Explorer.alphabet_size Vtime.pp
        o.Explorer.o_gap s.Explorer.total_leaves s.Explorer.leaves_explored
        s.Explorer.leaves_pruned s.Explorer.distinct_states
        s.Explorer.interior_runs;
      match o.Explorer.o_found with
      | Some f ->
        Format.printf "VIOLATION on path [%s]@."
          (String.concat "; "
             (List.map (Format.asprintf "%a" Campaign.pp_op)
                f.Explorer.f_path));
        (match f.Explorer.f_result.Runner.violations with
        | v :: _ ->
          Format.printf "  %a@." Invariant.pp_violation v;
          let sh = Runner.shrink ~monitor f.Explorer.f_campaign v in
          Format.printf "  shrunk %d steps -> %d in %d re-executions@."
            sh.Runner.original_steps sh.Runner.minimized_steps
            sh.Runner.runs_used;
          let cx =
            Explorer.to_counterexample ~shrunk:true cfg sh.Runner.minimized
          in
          if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
          let path =
            Filename.concat out_dir
              (Printf.sprintf "mc-%s-depth%d.chaos.json" (style_name style)
                 depth)
          in
          Runner.write_counterexample ~path cx;
          Format.printf "  wrote %s@." path
        | [] ->
          Format.printf
            "  (leaf-form re-run did not reproduce — prefix-only artifact)@.");
        exit 1
      | None ->
        let mismatch name expected got =
          match expected with
          | Some e when e <> got ->
            Format.printf "EXPECTATION MISMATCH: %s = %d, expected %d@." name
              got e;
            true
          | _ -> false
        in
        let bad =
          mismatch "explored" expect_explored s.Explorer.leaves_explored
        in
        let bad' = mismatch "pruned" expect_pruned s.Explorer.leaves_pruned in
        if bad || bad' then exit 1
        else if not quiet then
          Format.printf "zero invariant violations across all interleavings@.")
  with Invalid_argument m ->
    Format.eprintf "mc: %s@." m;
    exit 2

let depth_t =
  Arg.(
    value & opt int 3
    & info [ "depth" ] ~docv:"D"
        ~doc:"Ops per interleaving; the explorer enumerates A^$(docv) paths.")

let alphabet_t =
  Arg.(
    value & opt alphabet_conv `Full
    & info [ "alphabet" ] ~docv:"KIND"
        ~doc:
          "Op alphabet per controllable network: full (fail/heal, \
           corrupt-on/off, partition/unpartition), fail-heal, corrupt, \
           partition, or gray (bursty-loss, delay-inflation and \
           directional-loss on/off pairs, run with reinstatement on).")

let alphabet_nets_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "alphabet-nets" ] ~docv:"N"
        ~doc:
          "How many networks (0..N-1) the alphabet touches; default all but \
           the last, keeping every path inside the tolerated fault model.")

let gap_ms_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "gap-ms" ] ~docv:"MS"
        ~doc:
          "Decision-point spacing; default calibrates to twice the measured \
           token-rotation time (floor 5 ms).")

let settle_ms_t =
  Arg.(
    value & opt int 40
    & info [ "settle-ms" ] ~docv:"MS" ~doc:"Quiet time before the first op.")

let hold_ms_t =
  Arg.(
    value & opt int 40
    & info [ "hold-ms" ] ~docv:"MS"
        ~doc:"Time after the last op before the administrator heal.")

let mc_quiesce_ms_t =
  Arg.(
    value & opt int 500
    & info [ "quiesce-ms" ] ~docv:"MS"
        ~doc:"Heal-and-drain tail before the end-of-run checks.")

let expect_explored_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "expect-explored" ] ~docv:"N"
        ~doc:
          "Fail (exit 1) unless exactly $(docv) leaves were explored — CI \
           guard for count stability.")

let expect_pruned_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "expect-pruned" ] ~docv:"N"
        ~doc:"Fail (exit 1) unless exactly $(docv) leaves were pruned.")

let arbitrary_state_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "arbitrary-state" ] ~docv:"N"
        ~doc:
          "Instead of enumerating fault schedules, perturb \
           protocol-internal state (forged tokens, problem counters, \
           reception-count monitors) at $(docv) points and check the \
           protocol stabilizes back to a live, progressing ring.")

let mc_cmd =
  let doc =
    "Bounded exhaustive model checking: run every interleaving of a small \
     chaos-op alphabet at token-rotation granularity under the invariant \
     monitors, with state-fingerprint pruning of symmetric paths."
  in
  Cmd.v (Cmd.info "mc" ~doc)
    Term.(
      const mc $ style_t $ nodes_t $ nets_t $ seed_t $ depth_t $ alphabet_t
      $ alphabet_nets_t $ gap_ms_t $ settle_ms_t $ hold_ms_t $ mc_quiesce_ms_t
      $ token_gap_ms_t $ lag_limit_t $ condemn_ms_t $ sporadic_max_t
      $ chaos_wire_t $ sim_domains_t $ out_dir_t $ expect_explored_t
      $ expect_pruned_t $ arbitrary_state_t $ quiet_t)

(* --- main ------------------------------------------------------------ *)

let () =
  let doc = "simulated Totem Redundant Ring Protocol testbed" in
  let info = Cmd.info "totem-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            throughput_cmd;
            sweep_cmd;
            failover_cmd;
            latency_cmd;
            trace_cmd;
            chaos_cmd;
            mc_cmd;
          ]))
