(* Flight recorder: a bounded per-node ring of the most recent
   telemetry events, cheap enough to leave attached for whole chaos
   campaigns so that an invariant violation arrives with the exact
   event history that preceded it.

   Cost model: one Telemetry.subscribe observer; recording an event
   is two array stores into preallocated parallel rings (times and
   events), with no entry record and no option per event, so the
   recorder allocates nothing of its own once attached. Entries are
   built only when history is read ([node_history], [dump]).
   Attaching a recorder makes the hub [active], so emit sites start
   constructing events; like every subscriber it is read-only with
   respect to protocol state, so the simulation stays bitwise identical
   (OBSERVABILITY.md invariant 2). Under [sim_domains >= 1] the
   recorder subscribes on the root hub and therefore sees the canonical
   (time, node, seq) drain order — dumps are identical for every domain
   count. *)

type ring = {
  times : Vtime.t array;
  events : Telemetry.event array;
  mutable next : int;
  mutable count : int;
}

(* Fills empty slots so a ring retains no event it no longer holds. *)
let no_event = Telemetry.Custom { component = ""; message = "" }

let ring_create capacity =
  {
    times = Array.make capacity Vtime.zero;
    events = Array.make capacity no_event;
    next = 0;
    count = 0;
  }

let ring_push r time event =
  let cap = Array.length r.times in
  let i = r.next in
  r.times.(i) <- time;
  r.events.(i) <- event;
  r.next <- (if i + 1 = cap then 0 else i + 1);
  if r.count < cap then r.count <- r.count + 1

let ring_entries r =
  let cap = Array.length r.times in
  let start = (r.next - r.count + cap) mod cap in
  let out = ref [] in
  for i = r.count - 1 downto 0 do
    let j = (start + i) mod cap in
    out := { Telemetry.time = r.times.(j); event = r.events.(j) } :: !out
  done;
  !out

type t = {
  capacity : int;
  nodes : ring array;
  fabric : ring; (* events with no owning node (losses, corruption, ...) *)
  mutable sub : (Telemetry.t * Telemetry.subscription) option;
      (* dropped on [detach], so a detached recorder keeps only its
         rings alive, not the hub and the simulation behind it *)
}

let record t time event =
  let node = Telemetry.node_of_event event in
  if node >= 0 && node < Array.length t.nodes then
    ring_push t.nodes.(node) time event
  else ring_push t.fabric time event

let attach ?(capacity = 64) ~nodes tel =
  if capacity <= 0 then invalid_arg "Recorder.attach: capacity must be positive";
  if nodes <= 0 then invalid_arg "Recorder.attach: nodes must be positive";
  let t =
    {
      capacity;
      nodes = Array.init nodes (fun _ -> ring_create capacity);
      fabric = ring_create capacity;
      sub = None;
    }
  in
  t.sub <- Some (tel, Telemetry.subscribe tel (record t));
  t

let detach t =
  match t.sub with
  | Some (tel, s) ->
    Telemetry.unsubscribe tel s;
    t.sub <- None
  | None -> ()

let capacity t = t.capacity
let num_nodes t = Array.length t.nodes

let node_history t node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Recorder.node_history";
  ring_entries t.nodes.(node)

let fabric_history t = ring_entries t.fabric

(* (node, entries) pairs for every non-empty ring, node order, with the
   fabric ring last under key -1 — the shape the chaos counterexample
   serializer embeds. *)
let dump t =
  let out = ref [] in
  if t.fabric.count > 0 then out := (-1, ring_entries t.fabric) :: !out;
  for node = Array.length t.nodes - 1 downto 0 do
    if t.nodes.(node).count > 0 then
      out := (node, ring_entries t.nodes.(node)) :: !out
  done;
  !out

let dump_jsonl t =
  List.map
    (fun (node, entries) ->
      ( node,
        List.map
          (fun (e : Telemetry.entry) -> Telemetry.json_of_event e.time e.event)
          entries ))
    (dump t)

let clear t =
  let reset r =
    Array.fill r.events 0 (Array.length r.events) no_event;
    r.next <- 0;
    r.count <- 0
  in
  Array.iter reset t.nodes;
  reset t.fabric
