(* The benchmark: one named workload, run in whole rounds for a given
   time, its outputs checked, every metric printed by name and unit.

     bench.exe --workload figures|gray-wire|explore --seed N --seconds S
               --trace 0|1 [--t0 MONOTONIC]

   The last line of standard output is one JSON object: correct,
   attempted, failed and the metrics — the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1. The lines before it
   give every normalised time beside its raw time and the reference
   kernel's own time, and a "RAW" JSON line the steadiness command
   reads. [--t0] is the CLOCK_MONOTONIC instant the launcher started
   this process, so set-up time counts from there. *)

open Perfbench
open Common

(* Each workload's set-up closes over its state and hands back one
   round. [extra] runs once after timing, for checks that are not part
   of a round, and [probes] adds layer probes to the traced run. *)
type instance = {
  run_round : unit -> round;
  extra : unit -> Checks.outcome list;
  probes : unit -> (string * float) list;
}

let figures ~seed =
  let st = Figures.setup ~seed in
  {
    run_round = (fun () -> Figures.round st);
    extra = (fun () -> []);
    probes = (fun () -> Probes.codec ~size:Figures.sizes.(0));
  }

let gray_wire ~seed =
  let st = Gray_wire.setup ~seed in
  {
    run_round = (fun () -> Gray_wire.round st);
    extra = (fun () -> []);
    probes = (fun () -> Probes.codec ~size:Gray_wire.sizes.(0));
  }

let explore ~seed =
  let st = Explore.setup ~seed in
  {
    run_round = (fun () -> Explore.round st);
    extra = (fun () -> [ Explore.canary st ]);
    probes =
      (fun () ->
        let creates =
          Array.map
            (fun leg ->
              let c = leg.Explore.config in
              Probes.create_ms
                (Totem_cluster.Config.make ~num_nodes:c.Totem_chaos.Explorer.num_nodes
                   ~num_nets:c.Totem_chaos.Explorer.num_nets ~style:c.Totem_chaos.Explorer.style
                   ~seed ~wire_bytes:c.Totem_chaos.Explorer.wire
                   ~rrp:
                     {
                       Totem_rrp.Rrp_config.default with
                       Totem_rrp.Rrp_config.reinstate = c.Totem_chaos.Explorer.reinstate;
                     }
                   ()))
            st.Explore.legs
        in
        ("cluster.create_ms.probe", geomean creates) :: Probes.codec ~size:100);
  }

let workloads = [ ("figures", figures); ("gray-wire", gray_wire); ("explore", explore) ]

(* --- arguments ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload figures|gray-wire|explore --seed N --seconds S --trace 0|1 \
     [--t0 T]\n       bench.exe reference";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None
  and t0 = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None); go rest
    | "--t0" :: v :: rest -> t0 := float_of_string_opt v; go rest
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown argument " ^ a); usage ()
  in
  go argv;
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some tr when List.mem_assoc w workloads && secs > 0.0 ->
    (w, s, secs, tr, !t0)
  | _ -> usage ()

(* --- statistics ----------------------------------------------------- *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type timed = {
  round : round;
  norm : float;  (* normalised seconds inside program calls *)
  raw : float;
  kernel : float;  (* kernel seconds over the whole round *)
  words : float;  (* program allocation *)
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
}

let timed_round inst =
  let w0 = Meter.words () and cn0 = !Meter.call_norm and cr0 = !Meter.call_raw in
  let k0 = Timeshare.kernel () in
  let g0 = Gc.quick_stat () in
  let r = Meter.with_span sp_round inst.run_round in
  let g1 = Gc.quick_stat () in
  {
    round = r;
    norm = !Meter.call_norm -. cn0;
    raw = !Meter.call_raw -. cr0;
    kernel = Timeshare.kernel () -. k0;
    words = Meter.words () -. w0;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
  }

(* --- output --------------------------------------------------------- *)

let json_num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json l =
  String.concat ", "
    (List.map
       (fun (name, unit, v) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
       l)

(* A metric that is not a finite number means a layer measured nothing;
   the run is then not correct rather than silently reporting it. *)
let print_result ~correct ~attempted ~failed metrics =
  let bad = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (name, _, _) -> Printf.printf "  CHECK FAILED: %s is not a number\n" name) bad;
  let correct = correct && bad = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (metrics_json metrics)

let show_time name ~norm ~raw ~kernel =
  Printf.printf "  %-14s normalised %9.4f s   raw %9.4f s   kernel %8.4f s\n" name norm raw kernel

(* --- the run -------------------------------------------------------- *)

let run ~workload ~seed ~seconds ~trace ~t0 =
  let t_start = Timeshare.monotonic () in
  let t0 = Option.value t0 ~default:t_start in
  Timeshare.start ();
  let pre = t_start -. t0 in
  let factor0 = Timeshare.factor () in
  let inst = (List.assoc workload workloads) ~seed in
  (* Warm-up: one whole round, untimed, so caches, lazy set-up and the
     heap reach the state the timed rounds run in. Set-up time ends
     here. Its checks count like any round's. *)
  let warm = timed_round inst in
  let setup_norm = (pre *. factor0) +. Timeshare.norm ()
  and setup_raw = pre +. Timeshare.raw ()
  and setup_kernel = Timeshare.kernel () in
  Printf.printf "workload %s, seed %d, %g s, trace %b\n" workload seed seconds trace;
  show_time "setup_s" ~norm:setup_norm ~raw:setup_raw ~kernel:setup_kernel;
  (* Timed rounds: whole rounds until [seconds] of wall time have gone
     (at least two with tracing, which alternates traced and untraced
     rounds). *)
  let wall0 = Timeshare.monotonic () in
  let rounds = ref [] in
  let traced = ref [] in
  (* The major heap keeps growing slowly from round to round while the
     live data after a full collection stays about 0.1 MB, so its peak
     over the whole run would grow with the number of rounds the host
     fits in. The reported peak is taken after a fixed amount of work
     instead: set-up and the first timed round. *)
  let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
  let peak_mb = ref nan in
  let rec loop i =
    let tracing_this = trace && i mod 2 = 1 in
    Meter.tracing := tracing_this;
    let t = timed_round inst in
    Meter.tracing := false;
    let g = Gc.quick_stat () in
    if i = 0 then peak_mb := mb g.Gc.top_heap_words;
    Printf.printf "  round %d%s: normalised %.4f s  raw %.4f s  kernel %.4f s  heap %.2f MB  peak %.2f MB\n%!"
      i (if tracing_this then " (traced)" else "") t.norm t.raw t.kernel (mb g.Gc.heap_words)
      (mb g.Gc.top_heap_words);
    if tracing_this then traced := t :: !traced else rounds := t :: !rounds;
    let need = if trace then 2 else 1 in
    if i + 1 < need || Timeshare.monotonic () -. wall0 < seconds then loop (i + 1)
  in
  loop 0;
  let rounds = List.rev !rounds and traced = List.rev !traced in
  let all = (warm :: rounds) @ traced in
  let first = List.hd rounds in
  (* Telemetry overhead: one more round with the program's own tracing
     and causal trace on. *)
  let tel_round =
    if trace then begin
      program_tracing := true;
      let t = timed_round inst in
      program_tracing := false;
      Some t
    end
    else None
  in
  let probes = if trace then inst.probes () else [] in
  let extra = inst.extra () in
  Timeshare.stop ();
  (* Checks: every round's, the once-per-run ones, and that every round
     repeated the first exactly. A failed check of an operation is
     counted in [failed]; the result is correct when every other check
     passes, as it then speaks of the operations that did not fail. *)
  let same t =
    let a = t.round and b = first.round in
    a.ops = b.ops && a.events = b.events && a.delivered_per_sim_s = b.delivered_per_sim_s
    && a.p50_ms = b.p50_ms && a.p99_ms = b.p99_ms
  in
  let op_checks = List.concat_map (fun t -> t.round.op_checks) all in
  let checks =
    List.concat_map (fun t -> t.round.run_checks) all
    @ extra
    @ [
        Checks.check "every round repeats the first exactly" (List.for_all same all)
          (Printf.sprintf "%d rounds" (List.length all));
      ]
  in
  let failing l = List.filter (fun c -> not c.Checks.ok) l in
  List.iter
    (fun c -> Printf.printf "  OPERATION FAILED: %s (%s)\n" c.Checks.name c.Checks.detail)
    (failing op_checks);
  List.iter (fun c -> Printf.printf "  CHECK FAILED: %s (%s)\n" c.Checks.name c.Checks.detail) (failing checks);
  Printf.printf "  %d checks, %d failed\n"
    (List.length op_checks + List.length checks)
    (List.length (failing op_checks) + List.length (failing checks));
  let correct = failing checks = [] in
  let attempted = List.fold_left (fun a t -> a + t.round.ops) 0 all in
  let failed = List.fold_left (fun a t -> a + t.round.failed) 0 all in
  let med f = median (List.map f rounds) in
  let run_s = med (fun t -> t.norm) in
  let run_raw = med (fun t -> t.raw) and run_kernel = med (fun t -> t.kernel) in
  show_time "run_s" ~norm:run_s ~raw:run_raw ~kernel:run_kernel;
  Printf.printf "  rounds %d untraced, %d traced; kernel quanta %d\n" (List.length rounds)
    (List.length traced) (Timeshare.quanta ());
  let words = med (fun t -> t.words) in
  let words_spread =
    List.fold_left (fun m t -> Float.max m (Float.abs (t.words -. words))) 0.0 rounds
  in
  if words_spread > 0.0 then
    Printf.printf "  note: program allocation differs between rounds by up to %.0f words\n"
      words_spread;
  let r = first.round in
  Printf.printf "RAW {\"setup_s\": %s, \"run_s\": %s, \"setup_kernel_s\": %s, \"run_kernel_s\": %s}\n"
    (json_num setup_raw) (json_num run_raw) (json_num setup_kernel) (json_num run_kernel);
  if not trace then
    print_result ~correct ~attempted ~failed
      [
        ("setup_s", "s", setup_norm);
        ("run_s", "s", run_s);
        ("alloc_mwords", "Mwords", words /. 1e6);
        ("peak_heap_mb", "MB", !peak_mb);
        ("delivered_msgs_per_sim_s", "msg/sim-s", r.delivered_per_sim_s);
        ("delivery_p50_ms", "sim-ms", r.p50_ms);
        ("delivery_p99_ms", "sim-ms", r.p99_ms);
      ]
  else begin
    let count name = Option.value ~default:0.0 (List.assoc_opt name r.counts) in
    let ratio a b = if b = 0.0 then 0.0 else a /. b in
    let events = float_of_int r.events in
    let traced_s = median (List.map (fun t -> t.norm) traced) in
    let tel_s = match tel_round with Some t -> t.norm | None -> nan in
    let probe name = Option.value ~default:0.0 (List.assoc_opt name probes) in
    let create_ms =
      let p = probe "cluster.create_ms.probe" in
      if p > 0.0 then p else 1e3 *. ratio (count "cluster.create_s") (count "cluster.creates")
    in
    let g f = median (List.map f rounds) in
    let self = Meter.self_times () in
    List.iter
      (fun st ->
        Printf.printf "  span %-18s n=%-7d self %9.4f s norm (%9.4f raw)   total %9.4f s norm\n"
          st.Meter.st_name st.Meter.st_count st.Meter.st_self_norm st.Meter.st_self_raw
          st.Meter.st_total_norm)
      self;
    let dir = "perfbench/out" in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Printf.sprintf "%s/trace-%s-seed%d.json" dir workload seed in
    Meter.write_trace path;
    Printf.printf "  %d spans written to %s\n" (Meter.spans_recorded ()) path;
    Printf.printf "  traced run_s %.4f s, untraced %.4f s: span overhead %.4f s\n" traced_s run_s
      (traced_s -. run_s);
    print_result ~correct ~attempted ~failed
      ([
         ("engine.events", "count", events);
         ("engine.ns_per_event", "ns", 1e9 *. ratio run_s events);
         ("engine.words_per_event", "words", ratio words events);
         ("exchange.windows_run", "count", count "exchange.windows_run");
         ("exchange.windows_batched", "count", count "exchange.windows_batched");
         ("exchange.windows_widened", "count", count "exchange.windows_widened");
         ("net.frames_sent", "count", count "net.frames_sent");
         ("net.frames_dropped", "count", count "net.frames_dropped");
         ("net.wire_mbytes", "MB", count "net.wire_bytes" /. 1e6);
       ]
      @ List.map
          (fun cls -> (cls, "ns", probe cls))
          [
            "codec.encode_ns.token"; "codec.encode_ns.small"; "codec.encode_ns.full";
            "codec.decode_ns.token"; "codec.decode_ns.small"; "codec.decode_ns.full";
          ]
      @ [
          ("crc.ns_per_kb", "ns/KB", probe "crc.ns_per_kb");
          ("codec.encode_cache_hits", "count", count "codec.encode_cache_hits");
          ("codec.encode_cache_misses", "count", count "codec.encode_cache_misses");
          ("codec.decode_cache_hits", "count", count "codec.decode_cache_hits");
          ("codec.decode_cache_misses", "count", count "codec.decode_cache_misses");
          ("srp.packets_per_msg", "ratio", ratio (count "srp.sent_packets") (count "srp.sent_messages"));
          ("srp.token_visits", "count", count "srp.token_visits");
          ("srp.rotation_p50_ms", "sim-ms", ratio (count "srp.rotation_p50_ms") (count "srp.rotation_points"));
          ("srp.retransmissions_requested", "count", count "srp.retransmissions_requested");
          ("srp.retransmissions_served", "count", count "srp.retransmissions_served");
          ("srp.token_retransmits", "count", count "srp.token_retransmits");
          ("membership.ring_changes", "count", count "membership.ring_changes");
          ("rrp.duplicate_packets", "count", count "rrp.duplicate_packets");
          ("rrp.fault_reports", "count", count "rrp.fault_reports");
          ("rrp.flaps", "count", count "rrp.flaps");
          ("cluster.create_ms", "ms", create_ms);
          ("explore.runs", "count", count "explore.runs");
          ("explore.leaves_pruned", "count", count "explore.leaves_pruned");
          ("explore.distinct_states", "count", count "explore.distinct_states");
          ("explore.ms_per_run", "ms", 1e3 *. ratio run_s (count "explore.runs"));
          ("telemetry.overhead_s", "s", tel_s -. run_s);
          ("trace.overhead_s", "s", traced_s -. run_s);
          ("gc.minor_collections", "count", g (fun t -> float_of_int t.minor_gcs));
          ("gc.major_collections", "count", g (fun t -> float_of_int t.major_gcs));
          ("gc.promoted_mwords", "Mwords", g (fun t -> t.promoted) /. 1e6);
        ])
  end

(* Reference figures for the README, not workloads: the classic loop
   against the parallel core at one domain on the figures sweep
   (normalised time and words per event), and two worker domains
   against one on gray-wire. Two domains need both cores, so that pair
   runs without the alternation and reports raw wall time; run it
   unpinned. Sides interleave, three rounds each. *)
let reference () =
  Timeshare.start ();
  let st = Figures.setup ~seed:42 in
  let inst = { run_round = (fun () -> Figures.round st); extra = (fun () -> []); probes = (fun () -> []) } in
  let side d =
    Figures.sim_domains := d;
    let t = timed_round inst in
    (t.norm, t.raw, t.words /. float_of_int t.round.events)
  in
  let pairs = List.init 3 (fun _ -> let a = side 0 in let b = side 1 in (a, b)) in
  Timeshare.stop ();
  let med f = median (List.map f pairs) in
  Printf.printf "figures, classic loop:   %.3f s normalised  %.3f s raw  %.1f words/event\n"
    (med (fun ((n, _, _), _) -> n)) (med (fun ((_, r, _), _) -> r)) (med (fun ((_, _, w), _) -> w));
  Printf.printf "figures, sim_domains=1:  %.3f s normalised  %.3f s raw  %.1f words/event\n"
    (med (fun (_, (n, _, _)) -> n)) (med (fun (_, (_, r, _)) -> r)) (med (fun (_, (_, _, w)) -> w));
  let gw = Gray_wire.setup ~seed:1 in
  let wall d =
    Gray_wire.sim_domains := d;
    let t0 = Timeshare.monotonic () in
    ignore (Gray_wire.round gw);
    Timeshare.monotonic () -. t0
  in
  let pairs = List.init 3 (fun _ -> let a = wall 1 in let b = wall 2 in (a, b)) in
  Printf.printf "gray-wire, sim_domains=1: %.3f s wall\ngray-wire, sim_domains=2: %.3f s wall\n"
    (median (List.map fst pairs)) (median (List.map snd pairs))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "reference" ] -> reference ()
  | argv ->
    let workload, seed, seconds, trace, t0 = parse argv in
    (* The helper is stopped and reaped on every exit path. *)
    Fun.protect ~finally:Timeshare.stop (fun () -> run ~workload ~seed ~seconds ~trace ~t0)
