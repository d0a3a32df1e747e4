(* What one round of a workload reports, and the helpers the workloads
   share for reading the program's own telemetry registry. *)

module Telemetry = Totem_engine.Telemetry

type round = {
  ops : int;  (** operations attempted: sweep points, soak phases, explored runs *)
  failed : int;  (** operations whose own checks failed *)
  events : int;  (** simulator events *)
  delivered_per_sim_s : float;
  p50_ms : float;
  p99_ms : float;
  counts : (string * float) list;  (** per-layer counts, summed over the round *)
  op_checks : Checks.outcome list;
      (** checks of single operations: each failure is counted in [failed] *)
  run_checks : Checks.outcome list;  (** checks of the round as a whole *)
}

(* Span names for the calls the benchmark makes into each layer. *)
let sp_create = Meter.span "Cluster.create"
let sp_start = Meter.span "Cluster.start"
let sp_install = Meter.span "Workload.install"
let sp_run_for = Meter.span "Cluster.run_for"
let sp_metrics = Meter.span "Metrics.collect"
let sp_registry = Meter.span "Telemetry.read"
let sp_shutdown = Meter.span "Cluster.shutdown"
let sp_explore = Meter.span "Explorer.explore"
let sp_explore_run = Meter.span "Explorer.run"
let sp_encode = Meter.span "Codec.encode"
let sp_decode = Meter.span "Codec.decode"
let sp_crc = Meter.span "Crc32.digest"
let sp_round = Meter.span "round"

(* With [program_tracing] on, every cluster the workloads build runs
   with the program's own event tracing and causal trace attached; the
   difference in run time is the telemetry overhead. *)
let program_tracing = ref false

let trace_program cluster =
  if !program_tracing then begin
    let tel = Totem_cluster.Cluster.telemetry cluster in
    Telemetry.set_tracing tel true;
    ignore (Totem_engine.Causal.attach tel)
  end

(* Sum of every registered gauge or counter named
   [prefix.<instance>.what]; absent metrics read 0. *)
let registry_sum tel ~prefix ~what =
  let suffix = "." ^ what in
  let pl = String.length prefix and sl = String.length suffix in
  List.fold_left
    (fun acc (name, m) ->
      let n = String.length name in
      if n > pl + sl
         && String.sub name 0 pl = prefix
         && String.sub name (n - sl) sl = suffix
      then
        match m with
        | Telemetry.Gauge g -> acc +. g ()
        | Telemetry.Counter c -> acc +. float_of_int (Totem_engine.Stats.Counter.value c)
        | Telemetry.Histogram _ -> acc
      else acc)
    0.0 (Telemetry.metrics tel)

let registry_value tel name =
  match Telemetry.find_metric tel name with
  | Some (Telemetry.Gauge g) -> g ()
  | Some (Telemetry.Counter c) -> float_of_int (Totem_engine.Stats.Counter.value c)
  | _ -> 0.0

(* Per-layer counts accumulated across the clusters of one round. *)
type counts = (string, float) Hashtbl.t

let counts_create () : counts = Hashtbl.create 32

let add (c : counts) name v =
  Hashtbl.replace c name (v +. Option.value ~default:0.0 (Hashtbl.find_opt c name))

let counts_list (c : counts) =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) c [])

(* The counters the program registers for the layers under a cluster:
   SRP and membership per node, networks per net, the wire caches and
   the exchange when present. *)
let add_registry (c : counts) tel =
  let srp what = registry_sum tel ~prefix:"srp" ~what in
  add c "srp.sent_packets" (srp "sent_packets");
  add c "srp.sent_messages" (srp "sent_messages");
  add c "srp.token_visits" (srp "token_visits");
  add c "srp.retransmissions_requested" (srp "retransmissions_requested");
  add c "srp.retransmissions_served" (srp "retransmissions_served");
  add c "srp.token_retransmits" (srp "token_retransmits");
  add c "rrp.duplicate_packets" (srp "duplicate_packets");
  add c "membership.ring_changes" (registry_sum tel ~prefix:"membership" ~what:"ring_changes");
  let net what = registry_sum tel ~prefix:"net" ~what in
  add c "net.frames_sent" (net "frames_sent");
  add c "net.frames_dropped"
    (net "frames_lost" +. net "frames_burst_lost" +. net "frames_dir_lost"
   +. net "frames_faulted" +. net "frames_corrupted");
  add c "net.wire_bytes" (net "wire_bytes");
  List.iter
    (fun w -> add c ("codec." ^ w) (registry_value tel ("wire." ^ w)))
    [ "encode_cache_hits"; "encode_cache_misses"; "decode_cache_hits"; "decode_cache_misses" ];
  List.iter
    (fun w -> add c ("exchange." ^ w) (registry_value tel ("exchange." ^ w)))
    [ "windows_run"; "windows_batched"; "windows_widened" ]

(* Geometric mean, so every sweep point counts equally. *)
let geomean a =
  let n = Array.length a in
  if n = 0 then nan
  else exp (Array.fold_left (fun s x -> s +. log x) 0.0 a /. float_of_int n)

(* A growable int buffer reused across runs, kept off the OCaml heap
   (see {!Checks.ints}). *)
type ibuf = { mutable data : Checks.ints; mutable n : int }

let ibuf capacity = { data = Checks.ints capacity; n = 0 }

let push b x =
  if b.n = Bigarray.Array1.dim b.data then
    b.data <- Checks.grow_ints b.data ~used:b.n (max 1024 (2 * b.n));
  Bigarray.Array1.unsafe_set b.data b.n x;
  b.n <- b.n + 1
