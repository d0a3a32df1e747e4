module Vtime = Totem_engine.Vtime
module Sim = Totem_engine.Sim
module Telemetry = Totem_engine.Telemetry
module Cluster = Totem_cluster.Cluster
module Config = Totem_cluster.Config
module Workload = Totem_cluster.Workload
module Scenario = Totem_cluster.Scenario

module Recorder = Totem_engine.Recorder

type result = {
  campaign : Campaign.t;
  monitor : Invariant.config;
  violations : Invariant.violation list;
  submitted : int option;
  delivered : int;
  finished_at : Vtime.t;
  events : int;
  recorder : Recorder.t;
}

let passed r = r.violations = []

(* Rendered on demand: most runs pass, and nothing reads their history. *)
let history r = Recorder.dump_jsonl r.recorder

let pp_result ppf r =
  match r.violations with
  | [] ->
    Format.fprintf ppf "pass: %d events, %d delivered at node 0, ended %a"
      r.events r.delivered Vtime.pp r.finished_at
  | v :: rest ->
    Format.fprintf ppf "VIOLATION %a (+%d more)" Invariant.pp_violation v
      (List.length rest)

(* Violations are checked on a fixed slice grid so a run stops promptly
   once a monitor fires; the grid is absolute, so slicing never changes
   what the simulation computes, only when we look at it. *)
let slice = Vtime.ms 25

(* Every run carries a flight recorder: a bounded per-node ring of the
   most recent telemetry events, kept detached in the result and dumped
   into counterexamples so a [.chaos.json] shows what each node was
   doing when the monitor fired. The recorder is a read-only subscriber,
   so arming it cannot change what the simulation computes. *)
let recorder_capacity = 64

let run ?(monitor = Invariant.default) ?sink ?(shadow = false)
    ?(sim_domains = 0) ?(window_batch = true) ?(max_horizon_factor = 8)
    ?prepare ?(probes = []) ?(end_checks = true) campaign =
  (match Campaign.validate campaign with
  | Ok () -> ()
  | Error m -> invalid_arg ("Runner.run: invalid campaign: " ^ m));
  let rrp =
    {
      Totem_rrp.Rrp_config.default with
      Totem_rrp.Rrp_config.reinstate = campaign.Campaign.reinstate;
    }
  in
  let config =
    Config.make ~num_nodes:campaign.Campaign.num_nodes
      ~num_nets:campaign.Campaign.num_nets ~style:campaign.Campaign.style
      ~seed:campaign.Campaign.seed ~rrp ~wire_bytes:campaign.Campaign.wire
      ~codec_shadow:shadow ~sim_domains ~window_batch ~max_horizon_factor ()
  in
  let cluster = Cluster.create config in
  let mon = Invariant.attach cluster monitor campaign in
  let recorder =
    Recorder.attach ~capacity:recorder_capacity
      ~nodes:campaign.Campaign.num_nodes
      (Cluster.telemetry cluster)
  in
  (match prepare with Some f -> f cluster | None -> ());
  (match sink with
  | Some f -> Telemetry.set_sink (Cluster.telemetry cluster) f
  | None -> ());
  Cluster.start cluster;
  let sim = Cluster.sim cluster in
  List.iter
    (fun { Campaign.at; op } ->
      ignore
        (Sim.schedule_at sim ~time:at (fun () ->
             Scenario.apply cluster (Campaign.to_action op);
             Invariant.note_step mon op)))
    campaign.Campaign.steps;
  (match campaign.Campaign.traffic with
  | Campaign.Saturate size -> Workload.saturate cluster ~size
  | Campaign.Bursts bs ->
    List.iter
      (fun (node, size, count, at) -> Workload.burst cluster ~node ~size ~count ~at)
      bs);
  (* Probes are read-only observation points. They fire at [run_until]
     boundaries, where the parallel core guarantees every partition has
     processed all events <= the boundary and cross-partition traffic is
     flushed — so what a probe reads is identical for every
     [sim_domains]. With [probes = []] the boundary sequence is exactly
     the historical slice grid, so existing runs stay bit-for-bit. *)
  let pending = ref (List.stable_sort (fun (a, _) (b, _) -> compare a b) probes) in
  let fire_due t =
    let rec go () =
      match !pending with
      | (pt, f) :: rest when Vtime.( <= ) pt t ->
        pending := rest;
        f cluster;
        go ()
      | _ -> ()
    in
    go ()
  in
  let drive t0 t_end =
    let rec go t =
      if Vtime.( < ) t t_end && Invariant.clean mon then begin
        let next_slice = Vtime.min t_end (Vtime.add t slice) in
        let target =
          match !pending with
          | (pt, _) :: _ when Vtime.( > ) pt t && Vtime.( < ) pt next_slice -> pt
          | _ -> next_slice
        in
        Cluster.run_until cluster target;
        if Invariant.clean mon then fire_due target;
        go target
      end
    in
    go t0
  in
  let duration = campaign.Campaign.duration in
  drive Vtime.zero duration;
  if end_checks && Invariant.clean mon then begin
    (* Heal everything — the administrator's repair — then let the
       cluster quiesce before the end-of-run checks, like the original
       fuzz harness did. *)
    for net = 0 to campaign.Campaign.num_nets - 1 do
      Cluster.heal_network cluster net;
      Invariant.note_step mon (Campaign.Heal_net net)
    done;
    let stop = Vtime.add duration campaign.Campaign.quiesce in
    drive duration stop;
    if Invariant.clean mon then
      Invariant.final_checks mon ~submitted:(Campaign.submitted_messages campaign)
  end;
  Invariant.detach mon;
  Recorder.detach recorder;
  (match sink with
  | Some _ -> Telemetry.clear_sink (Cluster.telemetry cluster)
  | None -> ());
  {
    campaign;
    monitor;
    violations = Invariant.violations mon;
    submitted = Campaign.submitted_messages campaign;
    delivered = Cluster.delivered_at cluster 0;
    finished_at = Cluster.now cluster;
    events = Cluster.events_processed cluster;
    recorder;
  }

(* --- shrinking ------------------------------------------------------- *)

(* Greedy delta debugging on the step schedule: try dropping chunks of
   decreasing size (halves first, then finer), re-executing the campaign
   deterministically after each candidate drop and keeping it whenever
   the same invariant still fires first. *)

let first_invariant r =
  match r.violations with [] -> None | v :: _ -> Some v.Invariant.invariant

let reproduces ~monitor ?prepare campaign inv =
  first_invariant (run ~monitor ?prepare campaign) = Some inv

type shrink_report = {
  minimized : Campaign.t;
  runs_used : int;
  original_steps : int;
  minimized_steps : int;
}

let shrink ?(monitor = Invariant.default) ?(budget = 160) ?prepare campaign
    (violation : Invariant.violation) =
  let inv = violation.Invariant.invariant in
  let runs = ref 0 in
  let try_steps steps =
    if !runs >= budget then false
    else begin
      incr runs;
      reproduces ~monitor ?prepare { campaign with Campaign.steps } inv
    end
  in
  let drop_chunk steps lo len =
    List.filteri (fun i _ -> i < lo || i >= lo + len) steps
  in
  (* ddmin: granularity starts at 2 chunks and refines; restart whenever
     a drop sticks (smaller schedules shrink faster). *)
  let rec go steps n =
    let len = List.length steps in
    if len = 0 || !runs >= budget then steps
    else begin
      let chunk = max 1 (len / n) in
      let rec chunks lo =
        if lo >= len then None
        else
          let size = min chunk (len - lo) in
          let candidate = drop_chunk steps lo size in
          if try_steps candidate then Some candidate else chunks (lo + size)
      in
      match chunks 0 with
      | Some smaller -> go smaller (max 2 (n - 1))
      | None -> if chunk > 1 then go steps (min len (2 * n)) else steps
    end
  in
  let steps = go campaign.Campaign.steps 2 in
  {
    minimized = { campaign with Campaign.steps };
    runs_used = !runs;
    original_steps = List.length campaign.Campaign.steps;
    minimized_steps = List.length steps;
  }

(* --- counterexample files ------------------------------------------- *)

module J = Chaos_json

let schema = "totem-chaos/v3"

(* Older schemas still replay their violation. v1 files carry no
   history; v2 histories predate v3's event format (per-token string
   lines, [token_tx] without [dst]/[aru]), so they cannot match a
   replay's and are dropped on read. *)
let older_schemas = [ "totem-chaos/v1"; "totem-chaos/v2" ]

type counterexample = {
  cx_campaign : Campaign.t;
  cx_monitor : Invariant.config;
  cx_violation : Invariant.violation option;
  cx_shrunk : bool;
  cx_history : (int * J.t list) list;
}

(* The flight-recorder dump of a result, reparsed into JSON values so it
   can be embedded in (and compared against) counterexample files.
   Telemetry event JSON carries only integers and strings, so the
   parse/print round trip is exact and structural equality is the same
   as byte equality of the original JSONL lines. *)
let history_json r =
  List.map
    (fun (node, lines) ->
      ( node,
        List.map
          (fun line ->
            match J.parse line with
            | Ok v -> v
            | Error m ->
              invalid_arg ("Runner.history_json: unparseable event: " ^ m))
          lines ))
    (history r)

let counterexample_to_json cx =
  J.Obj
    [
      ("schema", J.str schema);
      ("shrunk", J.Bool cx.cx_shrunk);
      ("campaign", Campaign.to_json cx.cx_campaign);
      ("monitor", Invariant.config_to_json cx.cx_monitor);
      ( "violation",
        match cx.cx_violation with
        | None -> J.Null
        | Some v -> Invariant.violation_to_json v );
      ( "history",
        J.Arr
          (List.map
             (fun (node, events) ->
               J.Obj [ ("node", J.int node); ("events", J.Arr events) ])
             cx.cx_history) );
    ]

let write_counterexample ~path cx =
  let oc = open_out path in
  output_string oc (J.to_string (counterexample_to_json cx));
  close_out oc

let read_counterexample ~path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse text with
  | Error m -> Error (Printf.sprintf "%s: %s" path m)
  | Ok v -> (
    try
      let current =
        match J.get_str v "schema" path with
        | s when s = schema -> true
        | s when List.mem s older_schemas -> false
        | s ->
          raise (J.Parse_error (Printf.sprintf "%s: unexpected schema \"%s\"" path s))
      in
      let campaign =
        match J.field v "campaign" with
        | Some c -> Campaign.of_json c path
        | None -> raise (J.Parse_error (path ^ ": missing \"campaign\""))
      in
      let monitor =
        match J.field v "monitor" with
        | Some m -> Invariant.config_of_json m path
        | None -> raise (J.Parse_error (path ^ ": missing \"monitor\""))
      in
      let violation =
        match J.field v "violation" with
        | None | Some J.Null -> None
        | Some vv -> Some (Invariant.violation_of_json vv path)
      in
      (* Read an older file's history as an empty dump so replay skips
         the history comparison. *)
      let history =
        match J.field v "history" with
        | _ when not current -> []
        | None | Some J.Null -> []
        | Some (J.Arr entries) ->
          List.map
            (fun e ->
              (J.get_int e "node" path, J.get_list e "events" path))
            entries
        | Some _ ->
          raise (J.Parse_error (path ^ ": \"history\" is not an array"))
      in
      Ok
        {
          cx_campaign = campaign;
          cx_monitor = monitor;
          cx_violation = violation;
          cx_shrunk = J.get_bool v "shrunk" path;
          cx_history = history;
        }
    with J.Parse_error m -> Error m)

type replay_outcome =
  | Reproduced of result
      (** same invariant, same virtual time, same detail *)
  | Diverged of result * string
  | Clean_replay of result  (** file carried no violation; none occurred *)

let replay ?prepare cx =
  let r = run ~monitor:cx.cx_monitor ?prepare cx.cx_campaign in
  match (cx.cx_violation, r.violations) with
  | None, [] -> Clean_replay r
  | None, v :: _ ->
    Diverged
      (r, Format.asprintf "expected a clean run, got %a" Invariant.pp_violation v)
  | Some expected, [] ->
    Diverged
      ( r,
        Format.asprintf "expected %a, got a clean run" Invariant.pp_violation
          expected )
  | Some expected, got :: _ ->
    if
      expected.Invariant.invariant = got.Invariant.invariant
      && expected.Invariant.at = got.Invariant.at
      && expected.Invariant.detail = got.Invariant.detail
    then
      (* The violation matched; if the file carries a flight-recorder
         dump (v3), the replay's event history must match too. *)
      if cx.cx_history = [] || history_json r = cx.cx_history then Reproduced r
      else
        Diverged
          (r, "violation reproduced, but the event history diverged")
    else
      Diverged
        ( r,
          Format.asprintf "expected %a, got %a" Invariant.pp_violation expected
            Invariant.pp_violation got )

let replay_file ~path =
  match read_counterexample ~path with
  | Error m -> Error m
  | Ok cx -> Ok (replay cx)
