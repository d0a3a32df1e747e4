(* Workload "gray-wire": the gray-failure soak, run longer, for both
   redundant styles. 4 nodes, 2 networks, byte-wire on (every frame
   encoded, CRC-checked and decoded), the parallel core at one domain,
   reinstatement on. Each node submits stamped messages at a fixed rate
   (one every 2 ms; node i always sends [sizes.(i)] bytes) while network
   0 goes through six phases: clean, bursty loss with light corruption,
   gray failure (heavy burst loss, 3x latency with spikes, directional
   loss, corruption), probation (faults cleared), a flap storm, and
   healed. Network 1 is never faulted. Traffic stops at the end of the
   healed phase and the ring drains. One phase is one operation.

   [--seed] seeds the clusters, so it picks every fault-model draw:
   which frames are lost, corrupted, delayed. A round runs each style
   under three cluster seeds derived from it and pools their latencies:
   with one, the p99 delivery latency moved 11% (interquartile range)
   across five seeds, with the work and every other figure steady. *)

open Common
module Cluster = Totem_cluster.Cluster
module Config = Totem_cluster.Config
module Metrics = Totem_cluster.Metrics
module Workload = Totem_cluster.Workload
module Style = Totem_rrp.Style
module Rrp = Totem_rrp.Rrp
module Vtime = Totem_engine.Vtime
module Sim = Totem_engine.Sim
module Message = Totem_srp.Message

let num_nodes = 4
let sizes = [| 384; 512; 640; 768 |]
let interval = Vtime.ms 2
let styles = [| ("passive", Style.Passive); ("active", Style.Active) |]
let phase_names = [| "clean"; "bursty"; "gray"; "probation"; "storm"; "healed" |]
let bandwidth_bps = 100_000_000

(* Worker domains of the parallel core; the reference comparison sets
   it to 2. *)
let sim_domains = ref 1

(* The soak's reinstatement tuning: short backoff and probation so the
   condemn -> probation -> reinstate cycle fits inside a phase. The flap
   limit is higher than the soak's because the phases are longer: a
   network condemned for good before probation could not be
   reinstated there. *)
let rrp =
  {
    Totem_rrp.Rrp_config.default with
    Totem_rrp.Rrp_config.reinstate = true;
    reinstate_backoff = Vtime.ms 250;
    reinstate_backoff_max = Vtime.sec 1;
    reinstate_clean_rotations = 10;
    reinstate_flap_limit = 16;
  }

let phase_len = Vtime.sec 2
let drain = Vtime.sec 1

type state = {
  seeds : int array;  (* cluster seeds of one round *)
  order : Checks.order;
  lat : ibuf;  (* every latency (ns) at every node, this round *)
}

type soak = {
  delivered0 : int;  (* agreed deliveries at node 0 during the phases *)
  events : int;
  failed : int;  (* phases whose checks failed *)
  checks : Checks.outcome list;
}

let run_soak st counts ~label ~style ~seed =
  let config =
    Config.make ~num_nodes ~num_nets:2 ~style ~rrp ~wire_bytes:true ~sim_domains:!sim_domains
      ~seed ()
  in
  let floor_ns size =
    Checks.latency_floor_ns
      ~min_latency_ns:(Config.min_net_latency config)
      ~bytes:(size + Totem_net.Frame.header_overhead_bytes)
      ~bandwidth_bps
  in
  let phases = Array.length phase_names in
  let per_node = phases * phase_len / interval in
  Checks.order_reset st.order ~nodes:num_nodes;
  let t0 = Timeshare.norm () in
  let cluster = Meter.call sp_create (fun () -> Cluster.create config) in
  add counts "cluster.create_s" (Timeshare.norm () -. t0);
  add counts "cluster.creates" 1.0;
  trace_program cluster;
  let installed = ref 0 in
  (* The delivery closest to its floor: its latency and its floor. *)
  let lowest_margin = ref max_int and lowest = ref 0 and lowest_floor = ref 0 in
  let mismatch = ref None in
  Meter.call sp_install (fun () ->
      Cluster.on_deliver cluster (fun node m ->
          let origin = m.Message.origin and app_seq = m.Message.app_seq in
          Checks.order_note st.order ~node ~origin ~app_seq;
          if origin >= 0 && origin < num_nodes then begin
            (* Submission k of a node happens at [installed + k * interval]:
               that is the stamp the origin sees, and the only record of
               it at the other nodes, whose byte-wire decode carries the
               payload's size but not its content. *)
            let sent = !installed + (app_seq * interval) in
            let l = Cluster.now cluster - sent in
            push st.lat l;
            let floor = floor_ns sizes.(origin) in
            if l - floor < !lowest_margin then begin
              lowest_margin := l - floor;
              lowest := l;
              lowest_floor := floor
            end;
            let stamp_ok =
              match m.Message.data with
              | Workload.Stamped s -> s = sent
              | Message.Blob -> node <> origin
              | _ -> false
            in
            if (m.Message.size <> sizes.(origin) || not stamp_ok) && !mismatch = None then
              mismatch :=
                Some
                  (Printf.sprintf "node %d got %d:%d of %d bytes, submitted %d bytes at %d ns"
                     node origin app_seq m.Message.size sizes.(origin) sent)
          end));
  Meter.call sp_start (fun () -> Cluster.start cluster);
  installed := Cluster.now cluster;
  Meter.call sp_install (fun () ->
      for node = 0 to num_nodes - 1 do
        Workload.fixed_rate cluster ~node ~size:sizes.(node) ~interval ~count:per_node ()
      done);
  let sim = Cluster.sim cluster in
  let clear_gray () =
    Cluster.set_network_burst_loss cluster 0 ~p_enter:0.0 ~p_exit:1.0;
    Cluster.set_network_delay cluster 0 ~factor:1.0 ~spike_prob:0.0;
    Cluster.set_network_dir_loss cluster 0 ~src:0 ~dst:1 0.0;
    Cluster.set_network_corruption cluster 0 0.0
  in
  let enter_phase = function
    | 0 -> ()
    | 1 ->
      Cluster.set_network_burst_loss cluster 0 ~p_enter:0.05 ~p_exit:0.2;
      Cluster.set_network_corruption cluster 0 0.01
    | 2 ->
      Cluster.set_network_burst_loss cluster 0 ~p_enter:0.3 ~p_exit:0.05;
      Cluster.set_network_delay cluster 0 ~factor:3.0 ~spike_prob:0.05;
      Cluster.set_network_dir_loss cluster 0 ~src:0 ~dst:1 0.5;
      Cluster.set_network_corruption cluster 0 0.05
    | 3 -> clear_gray ()
    | 4 ->
      let third = phase_len / 3 in
      Cluster.set_network_burst_loss cluster 0 ~p_enter:0.9 ~p_exit:0.05;
      Cluster.set_network_corruption cluster 0 0.02;
      ignore
        (Sim.schedule sim ~delay:third (fun () ->
             Cluster.set_network_burst_loss cluster 0 ~p_enter:0.0 ~p_exit:1.0));
      ignore
        (Sim.schedule sim ~delay:(2 * third) (fun () ->
             Cluster.set_network_burst_loss cluster 0 ~p_enter:0.9 ~p_exit:0.05))
    | _ ->
      clear_gray ();
      Cluster.heal_network cluster 0
  in
  let net0_state () =
    List.init num_nodes (fun n -> Rrp.net_state_string (Cluster.rrp (Cluster.node cluster n)) ~net:0)
  in
  let states = Array.make phases [] in
  let d0 = Cluster.delivered_at cluster 0 in
  let flaps = ref 0 in
  for p = 0 to phases - 1 do
    Meter.call sp_install (fun () -> enter_phase p);
    Meter.call sp_run_for (fun () -> Cluster.run_for cluster phase_len);
    states.(p) <- Meter.call sp_metrics net0_state;
    (* Flap counts before the administrator's heal wipes them. *)
    if p = phases - 2 then
      flaps :=
        Meter.call sp_metrics (fun () ->
            List.fold_left ( + ) 0
              (List.init num_nodes (fun n -> Rrp.flaps (Cluster.rrp (Cluster.node cluster n)) ~net:0)))
  done;
  let delivered0 = Cluster.delivered_at cluster 0 - d0 in
  Meter.call sp_run_for (fun () -> Cluster.run_for cluster drain);
  let pt = Meter.call sp_metrics (fun () -> Metrics.collect_point_telemetry cluster) in
  let events = Meter.call sp_metrics (fun () -> Metrics.events_processed cluster) in
  Meter.call sp_registry (fun () ->
      add_registry counts (Cluster.telemetry cluster);
      add counts "rrp.fault_reports" (float_of_int (List.length (Cluster.fault_reports cluster))));
  add counts "rrp.flaps" (float_of_int !flaps);
  Meter.call sp_shutdown (fun () -> Cluster.shutdown cluster);
  add counts "srp.rotation_p50_ms" pt.Metrics.pt_rotation_p50;
  add counts "srp.rotation_points" 1.0;
  let all_active p = List.for_all (( = ) "active") states.(p) in
  let show p = String.concat "," states.(p) in
  let where = Printf.sprintf "%s seed %d" label seed in
  let whole =
    [
      Checks.exactly_once
        (where ^ ": every stamped message delivered once at every node, one order")
        st.order ~submitted:(Array.make num_nodes per_node);
      Checks.latency_floor
        (where ^ ": latency at least network latency plus serialisation")
        ~lowest_ns:!lowest ~floor_ns:!lowest_floor;
      Checks.check
        (where ^ ": deliveries match their submissions")
        (!mismatch = None)
        (Option.value !mismatch ~default:"origin, seq, size and stamp match");
    ]
  in
  let probation =
    Checks.check (where ^ ": net 0 reinstated by the end of probation") (all_active 3) (show 3)
  and healed = Checks.check (where ^ ": net 0 active when healed") (all_active 5) (show 5) in
  (* A failed check over the whole soak fails all its phases; a failed
     reinstatement check fails its own phase. *)
  let ok c = c.Checks.ok in
  let failed =
    if List.for_all ok whole then List.length (List.filter (fun c -> not (ok c)) [ probation; healed ])
    else phases
  in
  { delivered0; events; failed; checks = whole @ [ probation; healed ] }

let setup ~seed =
  {
    seeds = Array.init 3 (fun i -> (3 * seed) + i);
    order = Checks.order_create ~nodes:num_nodes ~capacity:(1 lsl 16);
    lat = ibuf (1 lsl 20);
  }

let round st =
  let counts = counts_create () in
  st.lat.n <- 0;
  let soaks =
    List.concat_map
      (fun (label, style) ->
        List.map (fun seed -> run_soak st counts ~label ~style ~seed) (Array.to_list st.seeds))
      (Array.to_list styles)
  in
  let n = List.length soaks in
  let delivered = List.fold_left (fun a s -> a + s.delivered0) 0 soaks in
  let sim_s = float_of_int (n * Array.length phase_names) *. Vtime.to_float_sec phase_len in
  let p50, p99 = Checks.p50_p99 st.lat.data st.lat.n in
  {
    ops = n * Array.length phase_names;
    failed = List.fold_left (fun a s -> a + s.failed) 0 soaks;
    events = List.fold_left (fun a s -> a + s.events) 0 soaks;
    delivered_per_sim_s = float_of_int delivered /. sim_s;
    p50_ms = p50 /. 1e6;
    p99_ms = p99 /. 1e6;
    counts = counts_list counts;
    op_checks = List.concat_map (fun s -> s.checks) soaks;
    run_checks = [];
  }
