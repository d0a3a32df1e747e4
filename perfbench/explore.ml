(* Workload "explore": bounded exhaustive model checking with
   [Explorer.explore], two legs per round:
   - full: the default alphabet (fail/heal, corrupt on/off, directed
     partition on/off of network 0), 3 nodes, active, byte-wire on,
     with the A6 detection bound armed (a failed network must be
     condemned within 120 ms);
   - gray: the gray-failure alphabet (burst loss, latency inflation,
     directional loss on/off), 2 nodes, passive, wire off,
     reinstatement on.
   Every explored leaf and every prefix re-execution is a fresh
   deterministic cluster run, so construction, start-up, the invariant
   monitors and fingerprinting dominate. One run is one operation, and
   a run that reports a violation is a failed one.

   Every run carries the explorer's fixed burst traffic, the same for
   each path of a leg, so each delivery's submission time is read off
   that schedule. The stamp a message carries survives only at its
   origin under byte-wire, whose decode keeps the payload's size but
   not its content; the schedule gives the same time at every node.

   [--seed] picks the order in which each leg enumerates its alphabet.
   The explorer's own seed, which seeds every run's cluster, is fixed:
   with it, which paths a prefix fingerprint prunes changed with the
   seed and so did the amount of work, 7% in run time and 27% in the
   p99 delivery latency over five seeds, far beyond any bound a
   regression check could use. *)

open Common
module Cluster = Totem_cluster.Cluster
module Workload = Totem_cluster.Workload
module Explorer = Totem_chaos.Explorer
module Invariant = Totem_chaos.Invariant
module Runner = Totem_chaos.Runner
module Vtime = Totem_engine.Vtime
module Message = Totem_srp.Message
module Rrp = Totem_rrp.Rrp
module Active = Totem_rrp.Active

type leg = {
  label : string;
  config : Explorer.config;
  sent : int array array;
      (* per origin: submission time of app_seq k at index k - 1 *)
}

(* Submission times per origin of the leg's burst traffic: a node's
   bursts in time order, each submitting [count] messages at once. *)
let schedule config =
  let campaign = Explorer.leaf_campaign config ~gap:(Explorer.calibrated_gap config) [] in
  match campaign.Totem_chaos.Campaign.traffic with
  | Totem_chaos.Campaign.Bursts bursts ->
    Array.init config.Explorer.num_nodes (fun node ->
        List.filter (fun (n, _, _, _) -> n = node) bursts
        |> List.stable_sort (fun (_, _, _, a) (_, _, _, b) -> compare a b)
        |> List.concat_map (fun (_, _, count, at) -> List.init count (fun _ -> at))
        |> Array.of_list)
  | Totem_chaos.Campaign.Saturate _ -> invalid_arg "Explore.schedule: saturating traffic"

(* The order the explorer takes the alphabet in, from [seed]: a
   Fisher-Yates shuffle on a small LCG. *)
let shuffle ~seed ops =
  let a = Array.of_list ops in
  let x = ref (seed land 0x3fffffff) in
  for i = Array.length a - 1 downto 1 do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    let j = !x mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let legs ~seed ~depth =
  let mk = Explorer.make ~num_nets:2 ~seed:42 ~depth ~gap:(Vtime.ms 5) ~settle:(Vtime.ms 40) in
  let leg label config = { label; config; sent = schedule config } in
  [|
    leg "full"
      (mk ~num_nodes:3 ~style:Totem_rrp.Style.Active ~wire:true
         ~alphabet:(shuffle ~seed (Explorer.default_alphabet ~num_nets:2))
         ~monitor:{ Invariant.default with Invariant.condemn_within = Some (Vtime.ms 120) }
         ~hold:(Vtime.ms 200) ~quiesce:(Vtime.ms 300) ());
    leg "gray"
      (mk ~num_nodes:2 ~style:Totem_rrp.Style.Passive ~wire:false
         ~alphabet:(shuffle ~seed:(seed + 1) (Explorer.gray_alphabet ~num_nets:2))
         ~reinstate:true ~hold:(Vtime.ms 100) ~quiesce:(Vtime.ms 300) ());
  |]

let depth = 3

(* The mutation canary: every node swallows its problemCounter
   increments, so a failed network is never condemned. *)
let suppress cluster =
  for node = 0 to Cluster.num_nodes cluster - 1 do
    match Rrp.as_active (Cluster.rrp (Cluster.node cluster node)) with
    | Some a -> Active.suppress_problem_increments a max_int
    | None -> ()
  done

type state = {
  seed : int;
  legs : leg array;
  lat : ibuf;
  mutable sent : int array array;  (* the running leg's schedule *)
  mutable mismatch : string option;  (* first delivery off the schedule *)
  mutable runs : int;  (* runs started through [prepare] *)
  mutable delivered0 : int;
  mutable sim_ns : int;
  mutable events : int;
  mutable current : Cluster.t option;
  mutable run_span : int;
}

(* Close the bookkeeping of the run that just ended. *)
let finish_run st =
  (match st.current with
  | Some c ->
    st.sim_ns <- st.sim_ns + Cluster.now c;
    st.events <- st.events + Cluster.events_processed c
  | None -> ());
  st.current <- None;
  Meter.leave st.run_span;
  st.run_span <- -1

let prepare st ~mutate cluster =
  finish_run st;
  st.run_span <- Meter.enter sp_explore_run;
  st.runs <- st.runs + 1;
  st.current <- Some cluster;
  trace_program cluster;
  Cluster.on_deliver cluster (fun node m ->
      if node = 0 then st.delivered0 <- st.delivered0 + 1;
      let origin = m.Message.origin and app_seq = m.Message.app_seq in
      if origin >= 0 && origin < Array.length st.sent && app_seq >= 1
         && app_seq <= Array.length st.sent.(origin)
      then begin
        let sent = st.sent.(origin).(app_seq - 1) in
        push st.lat (Cluster.now cluster - sent);
        let stamp_ok =
          match m.Message.data with
          | Workload.Stamped s -> s = sent
          | Message.Blob -> node <> origin
          | _ -> false
        in
        if (not stamp_ok) && st.mismatch = None then
          st.mismatch <-
            Some (Printf.sprintf "node %d got %d:%d, scheduled at %d ns" node origin app_seq sent)
      end
      else if st.mismatch = None then
        st.mismatch <- Some (Printf.sprintf "node %d got %d:%d, never scheduled" node origin app_seq));
  if mutate then suppress cluster

let explore st ?(mutate = false) (leg : leg) =
  st.sent <- leg.sent;
  let o =
    Meter.call sp_explore (fun () -> Explorer.explore ~prepare:(prepare st ~mutate) leg.config)
  in
  finish_run st;
  o

let violation_of (o : Explorer.outcome) =
  match o.Explorer.o_found with
  | None -> None
  | Some f ->
    Some
      (match f.Explorer.f_result.Runner.violations with
      | v :: _ -> Printf.sprintf "%s at %d ns: %s" v.Invariant.invariant v.Invariant.at v.Invariant.detail
      | [] -> "a violating path whose leaf-form re-run was clean")

let setup ~seed =
  {
    seed;
    legs = legs ~seed ~depth;
    lat = ibuf (1 lsl 16);
    sent = [||];
    mismatch = None;
    runs = 0;
    delivered0 = 0;
    sim_ns = 0;
    events = 0;
    current = None;
    run_span = -1;
  }

(* A leg that finds a violation stops there: its violating run fails,
   and its leaves are not all accounted for by design. A leg without
   one fails every run when explored + pruned misses alphabet^depth. *)
let round st =
  let counts = counts_create () in
  st.lat.n <- 0;
  st.mismatch <- None;
  st.runs <- 0;
  st.delivered0 <- 0;
  st.sim_ns <- 0;
  st.events <- 0;
  let checks = ref [] and reported = ref 0 and failed = ref 0 in
  Array.iter
    (fun leg ->
      let runs0 = st.runs in
      let o = explore st leg in
      let runs = st.runs - runs0 in
      let s = o.Explorer.o_stats in
      let where = Printf.sprintf "%s seed %d" leg.label st.seed in
      add counts "explore.runs" (float_of_int (s.Explorer.leaves_explored + s.Explorer.interior_runs));
      add counts "explore.leaves_pruned" (float_of_int s.Explorer.leaves_pruned);
      add counts "explore.distinct_states" (float_of_int s.Explorer.distinct_states);
      let found = violation_of o in
      (* A violating path is re-run once more in leaf form. *)
      reported :=
        !reported + s.Explorer.leaves_explored + s.Explorer.interior_runs
        + if o.Explorer.o_found = None then 0 else 1;
      let clean = Checks.no_violation (where ^ ": unmodified protocol has no violation") ~found in
      if found = None then begin
        let leaves =
          Checks.leaf_count (where ^ ": explored + pruned = alphabet^depth")
            ~alphabet_len:(List.length leg.config.Explorer.alphabet)
            ~depth:leg.config.Explorer.depth ~explored:s.Explorer.leaves_explored
            ~pruned:s.Explorer.leaves_pruned
        in
        if not leaves.Checks.ok then failed := !failed + runs;
        checks := leaves :: clean :: !checks
      end
      else begin
        incr failed;
        checks := clean :: !checks
      end)
    st.legs;
  let run_checks =
    [
      Checks.check "every explored run went through prepare" (st.runs = !reported)
        (Printf.sprintf "%d prepared, %d reported" st.runs !reported);
      Checks.check "deliveries match the burst schedule" (st.mismatch = None)
        (Option.value st.mismatch ~default:"origin, seq and stamp match");
    ]
  in
  let p50, p99 = Checks.p50_p99 st.lat.data st.lat.n in
  {
    ops = st.runs;
    failed = !failed;
    events = st.events;
    delivered_per_sim_s = float_of_int st.delivered0 /. (float_of_int st.sim_ns *. 1e-9);
    p50_ms = p50 /. 1e6;
    p99_ms = p99 /. 1e6;
    counts = counts_list counts;
    op_checks = List.rev !checks;
    run_checks;
  }

(* The same exploration of the full leg with detection weakened through
   [prepare] must find a violation. *)
let canary st =
  let leg = st.legs.(0) in
  let o = explore st ~mutate:true leg in
  Checks.canary
    (Printf.sprintf "%s seed %d: suppressed problem counters are caught" leg.label st.seed)
    ~found:(violation_of o)
