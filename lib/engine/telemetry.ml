(* Typed telemetry: a metrics registry (counters, gauges, log-bucketed
   histograms) plus a structured trace-event stream with exporters
   (JSONL, metrics JSON/text, token-rotation span view).

   Two delivery paths for events:
   - a bounded ring, enabled with
     [set_tracing], read back with [events] — what tests assert on;
   - an optional streaming sink (e.g. a JSONL writer), which sees every
     event regardless of the ring flag — what long runs export through.

   The hot-path contract: when neither is on, [active] is false and
   instrumented code skips constructing the event entirely, so disabled
   telemetry costs one branch per site. *)

(* --- events --------------------------------------------------------- *)

type token_info = { ring_id : int; seq : int; rotation : int; hops : int }

type release_trigger = Release_timer | Release_caught_up
type drop_kind = Drop_token | Drop_packet

type event =
  (* token life cycle (SRP view; per-network copies are Token_copy_rx) *)
  | Token_rx of { node : int; tok : token_info }
  | Token_tx of {
      node : int;
      tok : token_info;
      aru : int;
      rtr_len : int;
      dst : int;
    }
  | Token_copy_rx of { node : int; net : int; tok : token_info }
  | Token_retransmit of { node : int; tok : token_info }
  | Token_loss of { node : int; ring_id : int }
  (* passive-mode token buffering (Fig. 4) *)
  | Token_hold of { node : int; tok : token_info; aru : int }
  | Token_release of { node : int; ring_id : int; trigger : release_trigger }
  (* message path *)
  | Msg_tx of { node : int; seq : int; bytes : int }
  | Msg_deliver of { node : int; origin : int; tid : int; bytes : int }
  (* causal message path: every client message carries a trace id
     ([Causal.tid]) from origination to delivery (sim-side metadata
     derived from (origin, app_seq); no wire-format change) *)
  | Msg_originate of { node : int; tid : int; bytes : int; safe : bool }
  | Msg_defer of { node : int; tid : int; pending : int }
  | Msg_ordered of {
      node : int;
      tid : int;
      ring_id : int;
      seq : int;
      frag : int;
      frags : int;
    }
  | Packet_send of { node : int; net : int; ring_id : int; seq : int }
  | Packet_recv of {
      node : int;
      net : int;
      ring_id : int;
      seq : int;
      sender : int;
    }
  | Dup_drop of { node : int; kind : drop_kind; seq : int }
  | Rtr_request of { node : int; count : int; low : int; high : int }
  | Rtr_serve of { node : int; seq : int }
  (* fault monitors (Figs. 2 and 5) *)
  | Problem_incr of { node : int; net : int; count : int }
  | Problem_decay of { node : int; net : int; count : int }
  | Problem_threshold of { node : int; net : int; count : int; threshold : int }
  | Recv_lag of { node : int; net : int; behind : int; source : string }
  | Net_fault_marked of { node : int; net : int; evidence : string }
  (* reinstatement / probation state machine (flap damping) *)
  | Net_condemned of { node : int; net : int; flaps : int }
  | Net_probation of { node : int; net : int; attempt : int }
  | Net_reinstated of { node : int; net : int; rotations : int }
  (* membership *)
  | Memb_transition of { node : int; phase : string; ring_id : int; detail : string }
  | Ring_installed of { node : int; ring_id : int; members : int }
  (* network layer *)
  | Frame_loss of { net : int; src : int }
  | Frame_blocked of { net : int; src : int; dst : int }
  | Buffer_drop of { node : int; net : int; bytes : int }
  | Net_status of { net : int; status : string }
  | Frame_corrupt of { net : int; src : int; kind : string }
  | Frame_crc_reject of { node : int; net : int; src : int }
  | Frame_decode_reject of { node : int; net : int; src : int; error : string }
  (* escape hatch: the protocol layers' string trace lines *)
  | Custom of { component : string; message : string }

type entry = { time : Vtime.t; event : event }

(* --- metrics -------------------------------------------------------- *)

type metric =
  | Counter of Stats.Counter.t
  | Gauge of (unit -> float)
  | Histogram of Stats.Histogram.t

(* Log-spaced millisecond buckets from 10 us to ~10 s; the same spacing
   the latency probe uses, so distributions are comparable. *)
let default_ms_buckets = Array.init 60 (fun i -> 0.01 *. (1.26 ** float_of_int i))

(* Partitioned-mode buffering: each simulated node gets a child hub
   whose emissions (and deferred hook thunks) are queued as
   (time, source, seq) entries instead of dispatched; the exchange
   barrier drains all buffers in canonical merge order into the parent
   hub's sink/subscribers/ring. The seq is per-hub emission order, so
   intra-node order is exact and cross-node order is the same total
   order the frame exchange uses — independent of the domain count.

   The queue is a pair of parallel growable arrays reused across
   barriers — the seq is simply the slot index — so buffering an entry
   allocates nothing beyond the payload constructor itself. Every push
   site runs under a nondecreasing clock (a partition inside its
   window, the coordinator between its parking points, the drain's own
   timestamp replay), so each hub's stream is naturally time-sorted and
   the barrier merge is a k-way walk with no sort; [bsorted] guards the
   assumption and falls back to materialize-and-sort if a clock ever
   regresses across a push. *)
type payload = Ev of event | Thunk of (unit -> unit)

let dummy_payload = Thunk ignore

type t = {
  sim : Sim.t;
  capacity : int;
  mutable tracing : bool;
  ring : entry option array;
  mutable next : int;
  mutable count : int;
  mutable sink : (Vtime.t -> event -> unit) option;
  mutable subscribers : (int * (Vtime.t -> event -> unit)) list;
      (* observer fan-out, oldest first; ids make removal exact *)
  mutable next_subscriber : int;
  registry : (string, metric) Hashtbl.t;
  mutable names : string list;  (* registration order, newest first *)
  parent : t option; (* Some p: this is a buffered per-node child of p *)
  source : int; (* canonical merge rank; -1 for a root hub *)
  mutable buffering : bool; (* root hubs: buffer own emissions too *)
  mutable btimes : Vtime.t array; (* parallel slots, reused across drains *)
  mutable bpayloads : payload array;
  mutable blen : int;
  mutable bsorted : bool; (* btimes.(0..blen-1) nondecreasing? *)
}

type subscription = int

let create ?(capacity = 4096) sim =
  if capacity <= 0 then
    invalid_arg "Telemetry.create: capacity must be positive";
  {
    sim;
    capacity;
    tracing = false;
    ring = Array.make capacity None;
    next = 0;
    count = 0;
    sink = None;
    subscribers = [];
    next_subscriber = 0;
    registry = Hashtbl.create 64;
    names = [];
    parent = None;
    source = -1;
    buffering = false;
    btimes = [||];
    bpayloads = [||];
    blen = 0;
    bsorted = true;
  }

let create_child parent ~source sim =
  {
    sim;
    capacity = 1;
    tracing = false;
    ring = Array.make 1 None;
    next = 0;
    count = 0;
    sink = None;
    subscribers = [];
    next_subscriber = 0;
    registry = parent.registry; (* metrics live in the parent *)
    names = [];
    parent = Some parent;
    source;
    buffering = true;
    btimes = [||];
    bpayloads = [||];
    blen = 0;
    bsorted = true;
  }

(* The hub whose registry/sink/subscribers this hub feeds. *)
let root t = match t.parent with Some p -> p | None -> t

let set_buffering t b =
  t.buffering <- b;
  if (not b) && t.blen > 0 then
    invalid_arg "Telemetry.set_buffering: undrained buffer"

let buffering t = t.buffering
let sim t = t.sim
let set_tracing t b = t.tracing <- b
let tracing t = t.tracing
let set_sink t f = t.sink <- Some f
let clear_sink t = t.sink <- None

let subscribe t f =
  let id = t.next_subscriber in
  t.next_subscriber <- id + 1;
  t.subscribers <- t.subscribers @ [ (id, f) ];
  id

let unsubscribe t id =
  t.subscribers <- List.filter (fun (id', _) -> id' <> id) t.subscribers

(* A child hub is active when its parent is: the guard at emit sites
   must reflect where the events will eventually be dispatched. *)
let[@inline] active t =
  let r = root t in
  r.tracing || r.sink <> None || r.subscribers <> []

(* A plain recursion rather than [List.iter] over a closure capturing
   [time] and [event]: fanning an event out allocates nothing. *)
let rec notify subs time event =
  match subs with
  | [] -> ()
  | (_, f) :: rest ->
    f time event;
    notify rest time event

let dispatch t time event =
  (match t.sink with Some f -> f time event | None -> ());
  notify t.subscribers time event;
  if t.tracing then begin
    t.ring.(t.next) <- Some { time; event };
    t.next <- (t.next + 1) mod t.capacity;
    t.count <- min (t.count + 1) t.capacity
  end

let buffer_push t payload =
  let i = t.blen in
  if i = Array.length t.btimes then begin
    let cap = if i = 0 then 64 else 2 * i in
    let bt = Array.make cap Vtime.zero in
    let bp = Array.make cap dummy_payload in
    Array.blit t.btimes 0 bt 0 i;
    Array.blit t.bpayloads 0 bp 0 i;
    t.btimes <- bt;
    t.bpayloads <- bp
  end;
  let time = Sim.now t.sim in
  if i > 0 && Vtime.(time < t.btimes.(i - 1)) then t.bsorted <- false;
  t.btimes.(i) <- time;
  t.bpayloads.(i) <- payload;
  t.blen <- i + 1

let emit t event =
  if t.buffering then buffer_push t (Ev event)
  else dispatch t (Sim.now t.sim) event

let defer t f = if t.buffering then buffer_push t (Thunk f) else f ()

let has_buffered t = t.blen > 0

(* Earliest buffered timestamp in one non-empty hub: the head slot on
   the sorted fast path, a scan only after a clock regression. *)
let head_min h =
  if h.bsorted then h.btimes.(0)
  else begin
    let m = ref h.btimes.(0) in
    for i = 1 to h.blen - 1 do
      m := Vtime.min !m h.btimes.(i)
    done;
    !m
  end

(* Earliest buffered timestamp across a root hub and its children
   ([Vtime.never] when all empty): the exchange polls this once per
   window (and once per event inside an adaptive solo window), so it is
   a plain loop of field reads — O(hubs), allocation-free, no closure
   dispatch. *)
let buffered_next t ~children =
  let acc = ref (if t.blen = 0 then Vtime.never else head_min t) in
  for i = 0 to Array.length children - 1 do
    let c = Array.unsafe_get children i in
    if c.blen > 0 then acc := Vtime.min !acc (head_min c)
  done;
  !acc

(* Dispatch one buffered entry at its own timestamp. *)
let replay root set_clock time payload =
  set_clock time;
  match payload with Ev ev -> dispatch root time ev | Thunk f -> f ()

(* Drop consumed slots, keeping anything pushed during dispatch (a
   subscriber emitting, a deferred hook deferring again) for the next
   barrier, and clear the dead slots so payloads are not retained. *)
let compact h taken =
  if taken > 0 then begin
    let left = h.blen - taken in
    if left > 0 then begin
      Array.blit h.btimes taken h.btimes 0 left;
      Array.blit h.bpayloads taken h.bpayloads 0 left
    end;
    Array.fill h.bpayloads left taken dummy_payload;
    h.blen <- left;
    if left = 0 then h.bsorted <- true
  end

(* Fallback drain for a hub whose stream was observed out of order:
   materialize (time, source, seq, payload) tuples and sort, exactly
   the semantics of the merge below. Never taken on the in-tree push
   sites, which all run under nondecreasing clocks. *)
let drain_sorting t ~children ~set_clock =
  let count = Array.fold_left (fun acc c -> acc + c.blen) t.blen children in
  let arr = Array.make count (Vtime.zero, 0, 0, dummy_payload) in
  let i = ref 0 in
  let take h =
    let n = h.blen in
    for j = 0 to n - 1 do
      arr.(!i) <- (h.btimes.(j), h.source, j, h.bpayloads.(j));
      incr i
    done;
    n
  in
  let tn = take t in
  let cns = Array.map take children in
  Array.sort
    (fun (ta, sa, qa, _) (tb, sb, qb, _) ->
      let c = compare ta tb in
      if c <> 0 then c
      else
        let c = compare sa sb in
        if c <> 0 then c else compare qa qb)
    arr;
  compact t tn;
  Array.iteri (fun ci c -> compact c cns.(ci)) children;
  Array.iter (fun (time, _, _, payload) -> replay t set_clock time payload) arr

(* Barrier drain: merge the root's own buffer with every child's in
   canonical (time, source, seq) order — the same total order the frame
   exchange flushes in — then dispatch events and run deferred thunks
   with the coordinator clock set to each entry's own timestamp.

   Each hub's stream is already time-sorted (guarded by [bsorted]) and
   seq is the slot index, so the canonical order is a k-way merge over
   per-hub cursors: pick the hub whose head has the least
   (time, source), dispatch, advance. Source ranks are distinct across
   hubs, so the comparison never needs seq. Lengths are snapshotted
   first; entries pushed during dispatch stay for the next barrier. *)
let drain t ~children ~set_clock =
  if has_buffered t || Array.exists has_buffered children then begin
    if t.bsorted && Array.for_all (fun c -> c.bsorted) children then begin
      let tlen = t.blen in
      let clens = Array.map (fun c -> c.blen) children in
      let tcur = ref 0 in
      let curs = Array.make (Array.length children) 0 in
      let continue = ref true in
      while !continue do
        (* root first at ties: its source rank (-1) is least *)
        let best = ref t in
        let found = ref (!tcur < tlen) in
        let best_time = ref (if !found then t.btimes.(!tcur) else Vtime.zero) in
        let best_child = ref (-1) in
        Array.iteri
          (fun i c ->
            if curs.(i) < clens.(i) then begin
              let ct = c.btimes.(curs.(i)) in
              if
                (not !found)
                || Vtime.(ct < !best_time)
                || (ct = !best_time && c.source < !best.source)
              then begin
                found := true;
                best := c;
                best_time := ct;
                best_child := i
              end
            end)
          children;
        if not !found then continue := false
        else begin
          let h = !best in
          let cur = if !best_child < 0 then !tcur else curs.(!best_child) in
          if !best_child < 0 then incr tcur
          else curs.(!best_child) <- cur + 1;
          replay t set_clock h.btimes.(cur) h.bpayloads.(cur)
        end
      done;
      compact t !tcur;
      Array.iteri (fun i c -> compact c curs.(i)) children
    end
    else drain_sorting t ~children ~set_clock
  end

let custom t ~component message =
  if active t then emit t (Custom { component; message })

let node_labels prefix =
  let table = Array.init 64 (fun node -> prefix ^ string_of_int node) in
  fun node ->
    if node >= 0 && node < Array.length table then table.(node)
    else prefix ^ string_of_int node

let customf t ~component fmt =
  if active t then Format.kasprintf (fun s -> custom t ~component s) fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let events_seq t =
  let start = (t.next - t.count + t.capacity) mod t.capacity in
  let rec at i () =
    if i >= t.count then Seq.Nil
    else
      match t.ring.((start + i) mod t.capacity) with
      | Some e -> Seq.Cons (e, at (i + 1))
      | None -> at (i + 1) ()
  in
  at 0

let events t = List.of_seq (events_seq t)

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.count <- 0

(* --- registry ------------------------------------------------------- *)

(* Registration through a child hub lands in the parent registry, so
   per-node components built against their node's hub keep exporting
   into the one cluster-wide metrics view. *)
let register t name m =
  let t = root t in
  if not (Hashtbl.mem t.registry name) then t.names <- name :: t.names;
  Hashtbl.replace t.registry name m

let counter t name =
  match Hashtbl.find_opt (root t).registry name with
  | Some (Counter c) -> c
  | _ ->
    let c = Stats.Counter.create () in
    register t name (Counter c);
    c

let gauge t name f = register t name (Gauge f)

let histogram ?(buckets = default_ms_buckets) t name =
  match Hashtbl.find_opt (root t).registry name with
  | Some (Histogram h) -> h
  | _ ->
    let h = Stats.Histogram.create ~buckets in
    register t name (Histogram h);
    h

let find_metric t name = Hashtbl.find_opt (root t).registry name

let metrics t =
  let t = root t in
  List.rev_map (fun name -> (name, Hashtbl.find t.registry name)) t.names

(* --- rendering ------------------------------------------------------ *)

let type_name = function
  | Token_rx _ -> "token_rx"
  | Token_tx _ -> "token_tx"
  | Token_copy_rx _ -> "token_copy_rx"
  | Token_retransmit _ -> "token_retransmit"
  | Token_loss _ -> "token_loss"
  | Token_hold _ -> "token_hold"
  | Token_release _ -> "token_release"
  | Msg_tx _ -> "msg_tx"
  | Msg_deliver _ -> "msg_deliver"
  | Msg_originate _ -> "msg_originate"
  | Msg_defer _ -> "msg_defer"
  | Msg_ordered _ -> "msg_ordered"
  | Packet_send _ -> "packet_send"
  | Packet_recv _ -> "packet_recv"
  | Dup_drop _ -> "dup_drop"
  | Rtr_request _ -> "rtr_request"
  | Rtr_serve _ -> "rtr_serve"
  | Problem_incr _ -> "problem_incr"
  | Problem_decay _ -> "problem_decay"
  | Problem_threshold _ -> "problem_threshold"
  | Recv_lag _ -> "recv_lag"
  | Net_fault_marked _ -> "net_fault_marked"
  | Net_condemned _ -> "net_condemned"
  | Net_probation _ -> "net_probation"
  | Net_reinstated _ -> "net_reinstated"
  | Memb_transition _ -> "memb_transition"
  | Ring_installed _ -> "ring_installed"
  | Frame_loss _ -> "frame_loss"
  | Frame_blocked _ -> "frame_blocked"
  | Buffer_drop _ -> "buffer_drop"
  | Net_status _ -> "net_status"
  | Frame_corrupt _ -> "frame_corrupt"
  | Frame_crc_reject _ -> "frame_crc_reject"
  | Frame_decode_reject _ -> "frame_decode_reject"
  | Custom _ -> "custom"

(* Component naming convention (see OBSERVABILITY.md): srp<N> for
   single-ring protocol events at node N, rrp<N> for replication-layer
   events, memb<N> for membership, net<I> for network I. *)
let component_of = function
  | Token_rx { node; _ } | Token_tx { node; _ } | Token_retransmit { node; _ }
  | Token_loss { node; _ } | Msg_tx { node; _ } | Msg_deliver { node; _ }
  | Msg_originate { node; _ } | Msg_defer { node; _ } | Msg_ordered { node; _ }
  | Dup_drop { node; _ } | Rtr_request { node; _ } | Rtr_serve { node; _ } ->
    Printf.sprintf "srp%d" node
  | Token_copy_rx { node; _ } | Token_hold { node; _ }
  | Token_release { node; _ } | Problem_incr { node; _ }
  | Problem_decay { node; _ } | Problem_threshold { node; _ }
  | Recv_lag { node; _ } | Net_fault_marked { node; _ }
  | Net_condemned { node; _ } | Net_probation { node; _ }
  | Net_reinstated { node; _ }
  | Packet_send { node; _ } | Packet_recv { node; _ } ->
    Printf.sprintf "rrp%d" node
  | Memb_transition { node; _ } | Ring_installed { node; _ } ->
    Printf.sprintf "memb%d" node
  | Frame_loss { net; _ } | Frame_blocked { net; _ } | Net_status { net; _ } ->
    Printf.sprintf "net%d" net
  | Buffer_drop { net; _ } | Frame_corrupt { net; _ }
  | Frame_crc_reject { net; _ } | Frame_decode_reject { net; _ } ->
    Printf.sprintf "net%d" net
  | Custom { component; _ } -> component

(* Which simulated node an event happened on, if any: the key the
   flight recorder ([Recorder]) shards its per-node rings by. Network
   and fabric events that are not tied to a receiving NIC — losses,
   blocks, in-flight corruption, status changes — have no node: -1. An
   [int] rather than an option so the recorder's per-event lookup
   allocates nothing. *)
let node_of_event = function
  | Token_rx { node; _ } | Token_tx { node; _ } | Token_copy_rx { node; _ }
  | Token_retransmit { node; _ } | Token_loss { node; _ }
  | Token_hold { node; _ } | Token_release { node; _ } | Msg_tx { node; _ }
  | Msg_deliver { node; _ } | Msg_originate { node; _ } | Msg_defer { node; _ }
  | Msg_ordered { node; _ } | Packet_send { node; _ } | Packet_recv { node; _ }
  | Dup_drop { node; _ } | Rtr_request { node; _ } | Rtr_serve { node; _ }
  | Problem_incr { node; _ } | Problem_decay { node; _ }
  | Problem_threshold { node; _ } | Recv_lag { node; _ }
  | Net_fault_marked { node; _ } | Net_condemned { node; _ }
  | Net_probation { node; _ } | Net_reinstated { node; _ }
  | Memb_transition { node; _ }
  | Ring_installed { node; _ } | Buffer_drop { node; _ }
  | Frame_crc_reject { node; _ } | Frame_decode_reject { node; _ } ->
    node
  | Frame_loss _ | Frame_blocked _ | Net_status _ | Frame_corrupt _ | Custom _
    ->
    -1

let pp_tok ppf (tk : token_info) =
  Format.fprintf ppf "ring=%d rot=%d hop=%d seq=%d" tk.ring_id tk.rotation
    tk.hops tk.seq

let trigger_name = function
  | Release_timer -> "timer"
  | Release_caught_up -> "caught-up"

let message_of ev =
  Format.asprintf "%t"
    (fun ppf ->
      match ev with
      | Token_rx { tok; _ } -> Format.fprintf ppf "token rx (%a)" pp_tok tok
      | Token_tx { tok; aru; rtr_len; dst; _ } ->
        Format.fprintf ppf "token tx to N%d (%a aru=%d rtr=%d)" dst pp_tok tok
          aru rtr_len
      | Token_copy_rx { net; tok; _ } ->
        Format.fprintf ppf "token copy on net%d (%a)" net pp_tok tok
      | Token_retransmit { tok; _ } ->
        Format.fprintf ppf "token retransmit (%a)" pp_tok tok
      | Token_loss { ring_id; _ } ->
        Format.fprintf ppf "token loss timeout (ring=%d)" ring_id
      | Token_hold { tok; aru; _ } ->
        Format.fprintf ppf "token held (%a aru=%d)" pp_tok tok aru
      | Token_release { ring_id; trigger; _ } ->
        Format.fprintf ppf "token released (ring=%d by %s)" ring_id
          (trigger_name trigger)
      | Msg_tx { seq; bytes; _ } ->
        Format.fprintf ppf "packet tx seq=%d bytes=%d" seq bytes
      | Msg_deliver { origin; tid; bytes; _ } ->
        Format.fprintf ppf "deliver origin=N%d tid=%d bytes=%d" origin tid bytes
      | Msg_originate { tid; bytes; safe; _ } ->
        Format.fprintf ppf "originate tid=%d bytes=%d%s" tid bytes
          (if safe then " safe" else "")
      | Msg_defer { tid; pending; _ } ->
        Format.fprintf ppf "flow defer tid=%d pending=%d" tid pending
      | Msg_ordered { tid; ring_id; seq; frag; frags; _ } ->
        Format.fprintf ppf "ordered tid=%d ring=%d seq=%d frag=%d/%d" tid
          ring_id seq frag frags
      | Packet_send { net; ring_id; seq; _ } ->
        Format.fprintf ppf "packet send on net%d (ring=%d seq=%d)" net ring_id
          seq
      | Packet_recv { net; ring_id; seq; sender; _ } ->
        Format.fprintf ppf "packet recv on net%d (ring=%d seq=%d from N%d)" net
          ring_id seq sender
      | Dup_drop { kind; seq; _ } ->
        Format.fprintf ppf "duplicate %s dropped (seq=%d)"
          (match kind with Drop_token -> "token" | Drop_packet -> "packet")
          seq
      | Rtr_request { count; low; high; _ } ->
        Format.fprintf ppf "rtr request count=%d range=[%d..%d]" count low high
      | Rtr_serve { seq; _ } -> Format.fprintf ppf "rtr serve seq=%d" seq
      | Problem_incr { net; count; _ } ->
        Format.fprintf ppf "problemCounter[net%d] -> %d" net count
      | Problem_decay { net; count; _ } ->
        Format.fprintf ppf "problemCounter[net%d] decayed -> %d" net count
      | Problem_threshold { net; count; threshold; _ } ->
        Format.fprintf ppf "problemCounter[net%d]=%d crossed threshold=%d" net
          count threshold
      | Recv_lag { net; behind; source; _ } ->
        Format.fprintf ppf "recvCount lag on net%d: %d behind (%s)" net behind
          source
      | Net_fault_marked { net; evidence; _ } ->
        Format.fprintf ppf "marked net%d faulty: %s" net evidence
      | Net_condemned { net; flaps; _ } ->
        Format.fprintf ppf "net%d condemned (flaps=%d)" net flaps
      | Net_probation { net; attempt; _ } ->
        Format.fprintf ppf "net%d on probation (attempt=%d)" net attempt
      | Net_reinstated { net; rotations; _ } ->
        Format.fprintf ppf "net%d reinstated after %d clean rotations" net
          rotations
      | Memb_transition { phase; ring_id; detail; _ } ->
        Format.fprintf ppf "-> %s (ring=%d): %s" phase ring_id detail
      | Ring_installed { ring_id; members; _ } ->
        Format.fprintf ppf "installed ring %d (%d members)" ring_id members
      | Frame_loss { src; _ } -> Format.fprintf ppf "frame lost (src=N%d)" src
      | Frame_blocked { src; dst; _ } ->
        Format.fprintf ppf "frame blocked (N%d -> N%d)" src dst
      | Buffer_drop { bytes; _ } ->
        Format.fprintf ppf "recv buffer overflow, dropped %d bytes" bytes
      | Net_status { status; _ } -> Format.fprintf ppf "status: %s" status
      | Frame_corrupt { src; kind; _ } ->
        Format.fprintf ppf "frame corrupted in flight (src=N%d, %s)" src kind
      | Frame_crc_reject { node; src; _ } ->
        Format.fprintf ppf "CRC reject at N%d (src=N%d)" node src
      | Frame_decode_reject { node; src; error; _ } ->
        Format.fprintf ppf "decode reject at N%d (src=N%d): %s" node src error
      | Custom { message; _ } -> Format.pp_print_string ppf message)

let pp_event ppf ev =
  Format.fprintf ppf "%-10s %s" (component_of ev) (message_of ev)

let pp_entry ppf e =
  Format.fprintf ppf "[%a] %a" Vtime.pp e.time pp_event e.event

(* --- JSONL export --------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
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

(* Flat field list per event; every line carries t_ns + type. *)
let fields_of_event ev =
  let i k v = (k, string_of_int v) in
  let s k v = (k, Printf.sprintf "\"%s\"" (json_escape v)) in
  let tokf (tk : token_info) =
    [ i "ring_id" tk.ring_id; i "seq" tk.seq; i "rotation" tk.rotation;
      i "hops" tk.hops ]
  in
  match ev with
  | Token_rx { node; tok } -> i "node" node :: tokf tok
  | Token_tx { node; tok; aru; rtr_len; dst } ->
    (i "node" node :: tokf tok)
    @ [ i "aru" aru; i "rtr_len" rtr_len; i "dst" dst ]
  | Token_copy_rx { node; net; tok } ->
    i "node" node :: i "net" net :: tokf tok
  | Token_retransmit { node; tok } -> i "node" node :: tokf tok
  | Token_loss { node; ring_id } -> [ i "node" node; i "ring_id" ring_id ]
  | Token_hold { node; tok; aru } ->
    (i "node" node :: tokf tok) @ [ i "aru" aru ]
  | Token_release { node; ring_id; trigger } ->
    [ i "node" node; i "ring_id" ring_id; s "trigger" (trigger_name trigger) ]
  | Msg_tx { node; seq; bytes } -> [ i "node" node; i "seq" seq; i "bytes" bytes ]
  | Msg_deliver { node; origin; tid; bytes } ->
    [ i "node" node; i "origin" origin; i "tid" tid; i "bytes" bytes ]
  | Msg_originate { node; tid; bytes; safe } ->
    [ i "node" node; i "tid" tid; i "bytes" bytes;
      ("safe", if safe then "true" else "false") ]
  | Msg_defer { node; tid; pending } ->
    [ i "node" node; i "tid" tid; i "pending" pending ]
  | Msg_ordered { node; tid; ring_id; seq; frag; frags } ->
    [ i "node" node; i "tid" tid; i "ring_id" ring_id; i "seq" seq;
      i "frag" frag; i "frags" frags ]
  | Packet_send { node; net; ring_id; seq } ->
    [ i "node" node; i "net" net; i "ring_id" ring_id; i "seq" seq ]
  | Packet_recv { node; net; ring_id; seq; sender } ->
    [ i "node" node; i "net" net; i "ring_id" ring_id; i "seq" seq;
      i "sender" sender ]
  | Dup_drop { node; kind; seq } ->
    [ i "node" node;
      s "kind" (match kind with Drop_token -> "token" | Drop_packet -> "packet");
      i "seq" seq ]
  | Rtr_request { node; count; low; high } ->
    [ i "node" node; i "count" count; i "low" low; i "high" high ]
  | Rtr_serve { node; seq } -> [ i "node" node; i "seq" seq ]
  | Problem_incr { node; net; count } | Problem_decay { node; net; count } ->
    [ i "node" node; i "net" net; i "count" count ]
  | Problem_threshold { node; net; count; threshold } ->
    [ i "node" node; i "net" net; i "count" count; i "threshold" threshold ]
  | Recv_lag { node; net; behind; source } ->
    [ i "node" node; i "net" net; i "behind" behind; s "source" source ]
  | Net_fault_marked { node; net; evidence } ->
    [ i "node" node; i "net" net; s "evidence" evidence ]
  | Net_condemned { node; net; flaps } ->
    [ i "node" node; i "net" net; i "flaps" flaps ]
  | Net_probation { node; net; attempt } ->
    [ i "node" node; i "net" net; i "attempt" attempt ]
  | Net_reinstated { node; net; rotations } ->
    [ i "node" node; i "net" net; i "rotations" rotations ]
  | Memb_transition { node; phase; ring_id; detail } ->
    [ i "node" node; s "phase" phase; i "ring_id" ring_id; s "detail" detail ]
  | Ring_installed { node; ring_id; members } ->
    [ i "node" node; i "ring_id" ring_id; i "members" members ]
  | Frame_loss { net; src } -> [ i "net" net; i "src" src ]
  | Frame_blocked { net; src; dst } -> [ i "net" net; i "src" src; i "dst" dst ]
  | Buffer_drop { node; net; bytes } ->
    [ i "node" node; i "net" net; i "bytes" bytes ]
  | Net_status { net; status } -> [ i "net" net; s "status" status ]
  | Frame_corrupt { net; src; kind } ->
    [ i "net" net; i "src" src; s "kind" kind ]
  | Frame_crc_reject { node; net; src } ->
    [ i "node" node; i "net" net; i "src" src ]
  | Frame_decode_reject { node; net; src; error } ->
    [ i "node" node; i "net" net; i "src" src; s "error" error ]
  | Custom { component; message } ->
    [ s "component" component; s "message" message ]

let json_of_event time ev =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "{\"t_ns\":%d,\"type\":\"%s\"" time (type_name ev));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf ",\"%s\":%s" k v))
    (fields_of_event ev);
  Buffer.add_char buf '}';
  Buffer.contents buf

let jsonl_sink oc time ev =
  output_string oc (json_of_event time ev);
  output_char oc '\n'

let write_jsonl oc t =
  Seq.iter (fun e -> jsonl_sink oc e.time e.event) (events_seq t)

(* --- metrics export ------------------------------------------------- *)

let metrics_json t =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "{\n  \"schema\": \"totem-metrics/v1\",\n  \"metrics\": [\n";
  let ms = metrics t in
  List.iteri
    (fun i (name, m) ->
      pf "    {\"name\": \"%s\", " (json_escape name);
      (match m with
      | Counter c -> pf "\"type\": \"counter\", \"value\": %d" (Stats.Counter.value c)
      | Gauge f -> pf "\"type\": \"gauge\", \"value\": %.6g" (f ())
      | Histogram h ->
        pf "\"type\": \"histogram\", \"count\": %d, \"buckets\": ["
          (Stats.Histogram.count h);
        let first = ref true in
        Array.iter
          (fun (le, n) ->
            if n > 0 then begin
              if not !first then pf ", ";
              first := false;
              if le = infinity then pf "{\"le\": \"inf\", \"n\": %d}" n
              else pf "{\"le\": %.6g, \"n\": %d}" le n
            end)
          (Stats.Histogram.dump h);
        pf "]");
      pf "}%s\n" (if i < List.length ms - 1 then "," else ""))
    ms;
  pf "  ]\n}\n";
  Buffer.contents buf

let pp_metrics ppf t =
  Format.fprintf ppf "%-40s %12s@." "metric" "value";
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c ->
        Format.fprintf ppf "%-40s %12d@." name (Stats.Counter.value c)
      | Gauge f -> Format.fprintf ppf "%-40s %12.6g@." name (f ())
      | Histogram h ->
        Format.fprintf ppf "%-40s %12s %a@." name
          (Printf.sprintf "n=%d" (Stats.Histogram.count h))
          Stats.Histogram.pp h)
    (metrics t)

(* --- token-rotation span view --------------------------------------- *)

type span = {
  sp_ring_id : int;
  sp_rotation : int;
  sp_start : Vtime.t;
  sp_end : Vtime.t;
  sp_visits : int;
  sp_subs : entry list;  (* retransmit / hold / stall activity, oldest first *)
}

let spans_of_events entries =
  (* Group the stream into one span per (ring, rotation), delimited by
     the token-visit events that carry the rotation counter. Sub-events
     (retransmissions, holds, losses, problem counters) between two
     rotation boundaries belong to the enclosing span. *)
  let spans = ref [] in
  let current = ref None in
  let flush till =
    match !current with
    | Some (ring_id, rot, t0, t1, visits, subs) ->
      let t1 = match till with Some t -> t | None -> t1 in
      spans :=
        {
          sp_ring_id = ring_id;
          sp_rotation = rot;
          sp_start = t0;
          sp_end = t1;
          sp_visits = visits;
          sp_subs = List.rev subs;
        }
        :: !spans;
      current := None
    | None -> ()
  in
  List.iter
    (fun e ->
      let boundary ring_id rot =
        match !current with
        | Some (r, ro, t0, _, visits, subs) when r = ring_id && ro = rot ->
          current := Some (r, ro, t0, e.time, visits + 1, subs)
        | Some _ ->
          flush (Some e.time);
          current := Some (ring_id, rot, e.time, e.time, 1, [])
        | None -> current := Some (ring_id, rot, e.time, e.time, 1, [])
      in
      match e.event with
      | Token_rx { tok; _ } -> boundary tok.ring_id tok.rotation
      | Token_retransmit _ | Token_loss _ | Token_hold _ | Token_release _
      | Rtr_request _ | Rtr_serve _ | Problem_incr _ | Problem_threshold _
      | Dup_drop { kind = Drop_token; _ } -> (
        match !current with
        | Some (r, ro, t0, _, visits, subs) ->
          current := Some (r, ro, t0, e.time, visits, e :: subs)
        | None -> ())
      | _ -> ())
    entries;
  flush None;
  List.rev !spans

let token_spans t = spans_of_events (events t)

let pp_spans ppf spans =
  match spans with
  | [] -> Format.fprintf ppf "(no token rotations recorded)@."
  | _ ->
    let dur sp = Vtime.sub sp.sp_end sp.sp_start in
    let max_dur = List.fold_left (fun acc sp -> max acc (dur sp)) 1 spans in
    Format.fprintf ppf
      "token rotation spans (virtual time; bar = rotation duration):@.";
    let last_ring = ref (-1) in
    List.iter
      (fun sp ->
        if sp.sp_ring_id <> !last_ring then begin
          last_ring := sp.sp_ring_id;
          Format.fprintf ppf "ring %d:@." sp.sp_ring_id
        end;
        let width = 30 in
        let filled =
          max 1 (dur sp * width / max_dur)
        in
        Format.fprintf ppf "  rot %5d  %8.3fms .. %8.3fms  %8.3fms |%s%s| visits=%d@."
          sp.sp_rotation
          (Vtime.to_float_ms sp.sp_start)
          (Vtime.to_float_ms sp.sp_end)
          (Vtime.to_float_ms (dur sp))
          (String.make (min filled width) '#')
          (String.make (width - min filled width) ' ')
          sp.sp_visits;
        List.iter
          (fun e ->
            Format.fprintf ppf "      +%8.3fms %a@."
              (Vtime.to_float_ms (Vtime.sub e.time sp.sp_start))
              pp_event e.event)
          sp.sp_subs)
      spans
