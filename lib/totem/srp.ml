open Totem_engine

type callbacks = {
  on_deliver : Message.t -> unit;
  on_ring_change : ring_id:int -> members:Totem_net.Addr.node_id array -> unit;
}

type stats = {
  mutable delivered_messages : int;
  mutable delivered_bytes : int;
  mutable sent_messages : int;
  mutable sent_packets : int;
  mutable duplicate_packets : int;
  mutable duplicate_tokens : int;
  mutable retransmissions_served : int;
  mutable retransmissions_requested : int;
  mutable token_visits : int;
  mutable token_retransmits : int;
  mutable gather_entries : int;
  mutable ring_changes : int;
}

let fresh_stats () =
  {
    delivered_messages = 0;
    delivered_bytes = 0;
    sent_messages = 0;
    sent_packets = 0;
    duplicate_packets = 0;
    duplicate_tokens = 0;
    retransmissions_served = 0;
    retransmissions_requested = 0;
    token_visits = 0;
    token_retransmits = 0;
    gather_entries = 0;
    ring_changes = 0;
  }

type state =
  | Idle  (** created, no ring yet *)
  | Operational
  | Gather  (** collecting Joins *)
  | Commit_phase  (** the commit token is circulating the proposed ring *)
  | Recover  (** exchanging old-ring messages before installing *)

(* Fragment reassembly progress for one origin. *)
type reassembly = {
  re_app_seq : int;
  mutable re_next : int;  (* next fragment index expected *)
}

(* The delivery FIFO: (seq, element) pairs in two parallel ring
   arrays, so queuing and dequeuing an element allocates nothing once
   the FIFO has grown to the largest backlog. Slots outside
   [head .. head + len) may still hold delivered elements until they are
   overwritten. *)
type pending = {
  mutable seqs : int array;
  mutable elems : Wire.element array;  (* length: a power of two *)
  mutable head : int;
  mutable len : int;
}

let no_element =
  { Wire.message = Message.make ~origin:0 ~app_seq:0 ~size:0 (); fragment = None }

let pending_create () =
  { seqs = Array.make 64 0; elems = Array.make 64 no_element; head = 0; len = 0 }

let pending_push q seq e =
  let cap = Array.length q.elems in
  if q.len = cap then begin
    let seqs = Array.make (2 * cap) 0 and elems = Array.make (2 * cap) no_element in
    for i = 0 to cap - 1 do
      let j = (q.head + i) land (cap - 1) in
      seqs.(i) <- q.seqs.(j);
      elems.(i) <- q.elems.(j)
    done;
    q.seqs <- seqs;
    q.elems <- elems;
    q.head <- 0
  end;
  let i = (q.head + q.len) land (Array.length q.elems - 1) in
  q.seqs.(i) <- seq;
  q.elems.(i) <- e;
  q.len <- q.len + 1

let pending_drop q =
  q.head <- (q.head + 1) land (Array.length q.elems - 1);
  q.len <- q.len - 1

type t = {
  sim : Sim.t;
  cpu : Cpu.t;
  const : Const.t;
  me : Totem_net.Addr.node_id;
  lower : Lower.t;
  telemetry : Telemetry.t option;
  callbacks : callbacks;
  stats : stats;
  store : Recv_buffer.t;
  pending : pending;
      (* elements popped from the store in order, awaiting the
         safe-delivery stability condition *)
  mutable safe_horizon : int;
      (* seqs at or below this are held by every ring member: the
         minimum of the last two arus the token showed us *)
  rotation_hist : Stats.Histogram.t;
      (* wall time of each full token rotation, observed at the leader *)
  mutable rotation_started : Vtime.t;  (* negative = not yet seen *)
  allowance_hist : Stats.Histogram.t;
      (* flow-control allowance granted per token visit *)
  flow : Flow.t;
  send_queue : Message.t Queue.t;
  mutable pending_elements : Wire.element list;
      (* leftover fragments of a partially sent large message *)
  mutable supplier : (unit -> (int * Message.data) option) option;
  mutable app_seq : int;
  mutable state : state;
  mutable ring : Totem_net.Addr.node_id array;
  mutable ring_id : int;
  mutable last_rx_token : Token.t option;  (* newest token processed *)
  mutable last_sent_token : Token.t option;
  mutable aru_history : int list;  (* recent observed token arus, newest first *)
  reassembly : (Totem_net.Addr.node_id, reassembly) Hashtbl.t;
  mutable joins : Wire.join list;  (* collected during gather *)
  mutable pending_commit : Wire.commit option;
      (* the commit being circulated / recovered towards *)
  mutable recover_target : int;
      (* the old-ring seq every member must reach before installing *)
  mutable max_ring_id_seen : int;
  mutable crashed : bool;
  mutable probe_timer : Timer.t option;
  mutable commit_timer : Timer.t option;  (* representative's retransmit *)
  mutable token_loss_timer : Timer.t option;
  mutable token_retransmit_timer : Timer.t option;
  mutable join_timer : Timer.t option;
  mutable consensus_timer : Timer.t option;
}

(* Structured telemetry. [tel_active] is the hot-path guard: call sites
   only build an event value when someone is listening. *)
let[@inline] tel_active t =
  match t.telemetry with Some tl -> Telemetry.active tl | None -> false

(* String trace lines, for the rare membership transitions only: the
   per-token and per-packet paths emit typed events alone. Inactive,
   this formats nothing. *)
let component = Telemetry.node_labels "srp"

let trace t fmt =
  match t.telemetry with
  | Some tl when Telemetry.active tl ->
    Telemetry.customf tl ~component:(component t.me) fmt
  | _ -> Format.ikfprintf ignore Format.str_formatter fmt

let tel_emit t ev =
  match t.telemetry with Some tl -> Telemetry.emit tl ev | None -> ()

let tok_info (tok : Token.t) =
  {
    Telemetry.ring_id = tok.ring_id;
    seq = tok.seq;
    rotation = tok.rotation;
    hops = tok.hops;
  }

let me t = t.me
let my_aru t = Recv_buffer.my_aru t.store
let safe_horizon t = t.safe_horizon
let highest_seen t = Recv_buffer.highest_seen t.store
let current_ring_id t = t.ring_id
let members t = t.ring
let is_operational t = t.state = Operational
let stats t = t.stats
let rotation_histogram t = t.rotation_hist
let allowance_histogram t = t.allowance_hist
let is_crashed t = t.crashed
let send_queue_length t = Queue.length t.send_queue

(* --- timers -------------------------------------------------------- *)

let get_timer slot = Option.get slot

let stop_all_timers t =
  let stop = function Some tm -> Timer.stop tm | None -> () in
  stop t.probe_timer;
  stop t.commit_timer;
  stop t.token_loss_timer;
  stop t.token_retransmit_timer;
  stop t.join_timer;
  stop t.consensus_timer

(* --- delivery ------------------------------------------------------ *)

let deliver_message t (m : Message.t) =
  t.stats.delivered_messages <- t.stats.delivered_messages + 1;
  t.stats.delivered_bytes <- t.stats.delivered_bytes + m.size;
  if tel_active t then
    tel_emit t
      (Telemetry.Msg_deliver
         {
           node = t.me;
           origin = m.origin;
           tid = Causal.tid_of ~origin:m.origin ~app_seq:m.app_seq;
           bytes = m.size;
         });
  t.callbacks.on_deliver m

let deliver_element t (e : Wire.element) =
  match e.fragment with
  | None -> deliver_message t e.message
  | Some { index; count; _ } ->
    let origin = e.message.origin in
    let fresh () =
      Hashtbl.replace t.reassembly origin
        { re_app_seq = e.message.app_seq; re_next = 1 }
    in
    (match Hashtbl.find_opt t.reassembly origin with
    | None -> if index = 0 then fresh ()
    | Some r ->
      if index = 0 then fresh ()
      else if r.re_app_seq = e.message.app_seq && r.re_next = index then
        r.re_next <- index + 1
      else
        (* interleaving anomaly (ring change mid-message): drop partial *)
        Hashtbl.remove t.reassembly origin);
    (match Hashtbl.find_opt t.reassembly origin with
    | Some r when r.re_app_seq = e.message.app_seq && r.re_next = count ->
      Hashtbl.remove t.reassembly origin;
      deliver_message t e.message
    | _ -> ())

(* Whether an element may be handed to the application now: agreed
   content always, safe content only once stability (the packet's seq at
   or below the safe horizon) proves every member holds it. Total order
   forces in-order draining, so one unstable safe element holds
   everything ordered after it. *)
let element_deliverable t seq (e : Wire.element) =
  (not e.message.Message.safe) || seq <= t.safe_horizon

let rec flush_pending t ~ignore_safety =
  let q = t.pending in
  if q.len > 0 then begin
    let e = q.elems.(q.head) in
    if ignore_safety || element_deliverable t q.seqs.(q.head) e then begin
      pending_drop q;
      deliver_element t e;
      flush_pending t ~ignore_safety
    end
  end

let rec queue_elements q seq = function
  | [] -> ()
  | e :: rest ->
    pending_push q seq e;
    queue_elements q seq rest

let deliver_ready t =
  while Recv_buffer.has_deliverable t.store do
    let p = Recv_buffer.pop_deliverable t.store in
    queue_elements t.pending p.Wire.seq p.Wire.elements
  done;
  flush_pending t ~ignore_safety:false

(* --- token evidence and retransmission ----------------------------- *)

(* "A node periodically resends a copy of the last token it sent, as
   long as it has not received a message with a sequence number greater
   than that in the token" (Sec. 2). *)
let token_retransmit_expired t () =
  if (not t.crashed) && t.state = Operational then begin
    match t.last_sent_token with
    | None -> ()
    | Some tok ->
      t.stats.token_retransmits <- t.stats.token_retransmits + 1;
      if tel_active t then
        tel_emit t
          (Telemetry.Token_retransmit { node = t.me; tok = tok_info tok });
      t.lower.send_token ~dst:(Membership.next_on_ring t.ring ~me:t.me) tok;
      Timer.start_if_stopped (get_timer t.token_retransmit_timer)
        t.const.token_retransmit_interval
  end

let evidence_of_token_progress t =
  (match t.token_retransmit_timer with Some tm -> Timer.stop tm | None -> ());
  t.last_sent_token <- None

(* --- membership ---------------------------------------------------- *)

let proc_set_guess t =
  (* Everyone we have heard a Join from, plus our last ring, plus us. *)
  let module S = Set.Make (Int) in
  let s = S.singleton t.me in
  let s = Array.fold_left (fun s n -> S.add n s) s t.ring in
  let s = List.fold_left (fun s (j : Wire.join) -> S.add j.sender s) s t.joins in
  S.elements s

let send_join t =
  let join =
    {
      Wire.sender = t.me;
      proc_set = proc_set_guess t;
      fail_set = [];
      max_ring_id = t.max_ring_id_seen;
    }
  in
  trace t "send join (proc=[%s] max_ring=%d)"
    (String.concat ";" (List.map string_of_int join.proc_set))
    join.max_ring_id;
  t.lower.send_join join

let rec enter_gather t ~reason =
  if not t.crashed then begin
    trace t "enter gather: %s" reason;
    if tel_active t then
      tel_emit t
        (Telemetry.Memb_transition
           { node = t.me; phase = "gather"; ring_id = t.ring_id; detail = reason });
    t.stats.gather_entries <- t.stats.gather_entries + 1;
    t.state <- Gather;
    t.joins <- [];
    t.pending_commit <- None;
    stop_all_timers t;
    send_join t;
    Timer.start (get_timer t.join_timer) t.const.join_interval;
    Timer.start (get_timer t.consensus_timer) t.const.consensus_timeout
  end

and join_timer_expired t () =
  if (not t.crashed) && t.state = Gather then begin
    send_join t;
    Timer.start (get_timer t.join_timer) t.const.join_interval
  end

and consensus_expired t () =
  if t.crashed then ()
  else
    match t.state with
    | Idle | Operational -> ()
    | Commit_phase ->
      (* The commit token never completed its rounds: a proposed member
         vanished. Start the membership protocol over. *)
      enter_gather t ~reason:"commit phase timed out"
    | Recover ->
      (* The recovery exchange stalled (unrecoverable loss); progress
         wins — install with what we have. *)
      trace t "recovery deadline: installing with aru=%d target=%d"
        (Recv_buffer.my_aru t.store) t.recover_target;
      finish_recovery t
    | Gather ->
      let cands = Membership.candidates ~me:t.me ~joins:t.joins in
      let rep = Membership.representative cands in
      if rep = t.me then begin
        let ring = Membership.form_ring cands in
        (* Ring ids carry the representative in the low bits so that two
           reformations racing in disjoint partitions can never mint the
           same id (Totem proper uses a (seq, rep) pair; encoding it in
           one int keeps ids ordered by epoch). *)
        let epoch = Membership.max_ring_id t.joins t.max_ring_id_seen / 64 in
        let ring_id = ((epoch + 1) * 64) + (t.me mod 64) in
        trace t "representative: forming ring %d [%s]" ring_id
          (String.concat ";" (List.map string_of_int cands));
        if Array.length ring = 1 then begin
          (* Alone: nothing to commit or recover. *)
          install_new_ring t ~ring_id ~members:ring;
          process_token t (Token.initial ~ring ~ring_id)
        end
        else begin_commit_phase t ~ring ~ring_id
      end
      else begin
        (* Wait for the representative's commit token; if it never
           comes, start over — the representative may itself have
           failed. *)
        trace t "consensus: waiting for commit from N%d" rep;
        Timer.start (get_timer t.consensus_timer) t.const.consensus_timeout;
        t.joins <- [];
        send_join t
      end

(* --- commit and recovery (Totem membership, Sec. 2's substrate) ----- *)

and my_member_info t =
  {
    Wire.mi_node = t.me;
    mi_old_ring = t.ring_id;
    mi_aru = Recv_buffer.my_aru t.store;
  }

and send_commit_next t (cm : Wire.commit) =
  let dst = Membership.next_on_ring cm.cm_ring ~me:t.me in
  trace t "commit round %d for ring %d -> N%d" cm.cm_round cm.cm_ring_id dst;
  t.lower.send_commit ~dst cm

and begin_commit_phase t ~ring ~ring_id =
  if tel_active t then
    tel_emit t
      (Telemetry.Memb_transition
         {
           node = t.me;
           phase = "commit";
           ring_id;
           detail = Printf.sprintf "%d members" (Array.length ring);
         });
  t.state <- Commit_phase;
  (match t.join_timer with Some tm -> Timer.stop tm | None -> ());
  let cm =
    { Wire.cm_ring_id = ring_id; cm_ring = ring; cm_round = 1;
      cm_info = [ my_member_info t ] }
  in
  t.pending_commit <- Some cm;
  send_commit_next t cm;
  Timer.restart (get_timer t.consensus_timer) t.const.consensus_timeout;
  Timer.start_if_stopped (get_timer t.commit_timer)
    t.const.token_retransmit_interval

(* The representative retransmits its last commit until the phase
   completes (the member path re-forwards duplicates, so one surviving
   copy heals the whole chain). *)
and commit_retry_expired t =
  (match (t.state, t.pending_commit) with
  | (Commit_phase | Recover), Some cm
    when Membership.leader cm.cm_ring = t.me ->
    send_commit_next t cm;
    Timer.start_if_stopped (get_timer t.commit_timer)
      t.const.token_retransmit_interval
  | _ -> ())

and begin_recover t (cm : Wire.commit) =
  t.state <- Recover;
  t.pending_commit <- Some cm;
  (match t.join_timer with Some tm -> Timer.stop tm | None -> ());
  (match t.token_loss_timer with Some tm -> Timer.stop tm | None -> ());
  Timer.restart (get_timer t.consensus_timer) t.const.consensus_timeout;
  (* The recovery plan: every member that survives from our old ring
     must deliver the same prefix of it, so all must reach the maximum
     aru any of them holds. The lowest-id member already holding
     everything rebroadcasts the range; the Totem duplicate filter
     absorbs the copies everyone else already has. *)
  let peers =
    List.filter (fun (i : Wire.member_info) -> i.mi_old_ring = t.ring_id) cm.cm_info
  in
  let target =
    List.fold_left (fun acc (i : Wire.member_info) -> max acc i.mi_aru) 0 peers
  in
  let low =
    List.fold_left (fun acc (i : Wire.member_info) -> min acc i.mi_aru) target peers
  in
  t.recover_target <- target;
  let holders =
    List.filter (fun (i : Wire.member_info) -> i.mi_aru = target) peers
  in
  let chosen =
    List.fold_left (fun acc (i : Wire.member_info) -> min acc i.mi_node) max_int
      holders
  in
  trace t "recover: ring %d, target=%d low=%d rebroadcaster=N%d" cm.cm_ring_id
    target low chosen;
  if tel_active t then
    tel_emit t
      (Telemetry.Memb_transition
         {
           node = t.me;
           phase = "recover";
           ring_id = cm.cm_ring_id;
           detail = Printf.sprintf "target=%d low=%d" target low;
         });
  if chosen = t.me && target > low then
    for seq = low + 1 to target do
      match Recv_buffer.find t.store seq with
      | Some p ->
        trace t "recovery rebroadcast seq=%d" seq;
        t.lower.send_data p
      | None -> trace t "recovery: seq=%d already gone (gc)" seq
    done;
  check_recovery_complete t

and check_recovery_complete t =
  if t.state = Recover && Recv_buffer.my_aru t.store >= t.recover_target then
    finish_recovery t

and finish_recovery t =
  match t.pending_commit with
  | Some cm when t.state = Recover ->
    (* Hand the application the agreed old-ring prefix (held-back safe
       messages included — extended virtual synchrony would tag these
       transitional), then switch rings. *)
    deliver_ready t;
    flush_pending t ~ignore_safety:true;
    let ring_id = cm.Wire.cm_ring_id and ring = cm.Wire.cm_ring in
    t.pending_commit <- None;
    install_new_ring t ~ring_id ~members:ring;
    if Membership.leader ring = t.me then begin
      (* Give the other members the grace to complete their recovery
         before the first token demands their attention. *)
      let delay = t.const.recovery_grace in
      ignore
        (Sim.schedule t.sim ~delay (fun () ->
             if
               (not t.crashed) && t.state = Operational
               && t.ring_id = ring_id
             then process_token t (Token.initial ~ring ~ring_id)))
    end
  | _ -> ()

and token_loss_expired t () =
  if (not t.crashed) && t.state = Operational then begin
    if tel_active t then
      tel_emit t (Telemetry.Token_loss { node = t.me; ring_id = t.ring_id });
    enter_gather t ~reason:"token loss timeout"
  end

(* Adopt a new ring: reset the sequence space, flush what is deliverable
   from the old ring, and go operational. *)
and install_new_ring t ~ring_id ~members =
  deliver_ready t;
  (* Transitional-configuration simplification: whatever was ordered on
     the old ring is delivered before the new ring starts, including
     held-back safe messages (extended virtual synchrony would tag these
     as transitional). *)
  flush_pending t ~ignore_safety:true;
  t.safe_horizon <- 0;
  Recv_buffer.reset t.store;
  Flow.reset t.flow;
  Hashtbl.reset t.reassembly;
  t.ring <- members;
  t.ring_id <- ring_id;
  t.max_ring_id_seen <- max t.max_ring_id_seen ring_id;
  t.state <- Operational;
  t.last_rx_token <- None;
  t.last_sent_token <- None;
  t.aru_history <- [];
  t.joins <- [];
  t.stats.ring_changes <- t.stats.ring_changes + 1;
  (* A half-sent fragmented message cannot continue on the new ring:
     receivers flushed their partial reassembly, so the remaining
     fragments would never complete. Drop the remainder (the message is
     lost wholesale, as extended virtual synchrony permits for messages
     undelivered at a configuration change). *)
  (match t.pending_elements with
  | { Wire.fragment = Some f; _ } :: _ when f.Wire.index > 0 ->
    t.pending_elements <- []
  | _ -> ());
  stop_all_timers t;
  Timer.start (get_timer t.token_loss_timer) t.const.token_loss_timeout;
  Timer.start (get_timer t.probe_timer) t.const.merge_detect_interval;
  t.rotation_started <- Vtime.ns (-1);
  trace t "installed ring %d (%d members)" ring_id (Array.length members);
  if tel_active t then
    tel_emit t
      (Telemetry.Ring_installed
         { node = t.me; ring_id; members = Array.length members });
  t.callbacks.on_ring_change ~ring_id ~members

(* --- the token visit ------------------------------------------------ *)

(* Collect elements (packed user messages and fragments) that fill at
   most [max_packets] packets — the flow-control window counts protocol
   packets, the units that actually occupy the wire and the receivers'
   socket buffers. Works at element granularity so a message larger
   than one window crosses the ring a few fragments per token visit;
   leftovers wait in [pending_elements]. Mirrors Packing.pack_elements'
   greedy fill exactly. *)
and collect_for_packets t max_packets =
  let capacity = Totem_net.Frame.max_payload_bytes in
  let completed = ref 0 and used = ref 0 in
  let acc = ref [] in
  (* Whether one more element fits the window; updates the fill state. *)
  let fits e =
    let b = Wire.element_bytes t.const e in
    let completed', used' =
      if !used = 0 || (t.const.packing_enabled && !used + b <= capacity)
      then (!completed, !used + b)
      else (!completed + 1, b)
    in
    let total = completed' + (if used' > 0 then 1 else 0) in
    if total <= max_packets then begin
      completed := completed';
      used := used';
      true
    end
    else false
  in
  let refill_pending () =
    if t.pending_elements = [] then begin
      if not (Queue.is_empty t.send_queue) then
        t.pending_elements <-
          Packing.elements_of_message t.const (Queue.pop t.send_queue)
      else
        match t.supplier with
        | None -> ()
        | Some pull ->
          (match pull () with
          | None -> ()
          | Some (size, data) ->
            t.app_seq <- t.app_seq + 1;
            if tel_active t then
              tel_emit t
                (Telemetry.Msg_originate
                   {
                     node = t.me;
                     tid = Causal.tid_of ~origin:t.me ~app_seq:t.app_seq;
                     bytes = size;
                     safe = false;
                   });
            t.pending_elements <-
              Packing.elements_of_message t.const
                (Message.make ~origin:t.me ~app_seq:t.app_seq ~size ~data ()))
    end
  in
  let rec go () =
    refill_pending ();
    match t.pending_elements with
    | [] -> ()
    | e :: rest ->
      if fits e then begin
        acc := e :: !acc;
        t.pending_elements <- rest;
        go ()
      end
      else if tel_active t then
        (* The flow window closed with work still queued: record the
           deferral against the head element's message so the causal
           view shows where backpressure held each message up. *)
        tel_emit t
          (Telemetry.Msg_defer
             {
               node = t.me;
               tid =
                 Causal.tid_of ~origin:e.message.origin
                   ~app_seq:e.message.app_seq;
               pending =
                 List.length t.pending_elements + Queue.length t.send_queue;
             })
  in
  go ();
  List.rev !acc

and process_token t (tok : Token.t) =
  t.stats.token_visits <- t.stats.token_visits + 1;
  t.last_rx_token <- Some tok;
  if tel_active t then
    tel_emit t (Telemetry.Token_rx { node = t.me; tok = tok_info tok });
  (* The leader counts completed rotations. *)
  let rotation =
    if t.me = Membership.leader t.ring && tok.hops > 0 then tok.rotation + 1
    else tok.rotation
  in
  (* Rotation timing is an always-on metric: the leader sees the token
     exactly once per circuit, so its inter-visit gap is the rotation
     time. *)
  if rotation > tok.rotation then begin
    let now = Sim.now t.sim in
    if t.rotation_started >= Vtime.zero then
      Stats.Histogram.observe t.rotation_hist
        (Vtime.to_float_ms (Vtime.sub now t.rotation_started));
    t.rotation_started <- now
  end;
  Timer.restart (get_timer t.token_loss_timer) t.const.token_loss_timeout;
  (match t.token_retransmit_timer with Some tm -> Timer.stop tm | None -> ());
  (* Serve retransmission requests we can satisfy. *)
  let served, rtr_left =
    List.partition (fun seq -> Recv_buffer.find t.store seq <> None) tok.rtr
  in
  let retrans_packets =
    List.filter_map (fun seq -> Recv_buffer.find t.store seq) served
  in
  (* Broadcast new messages within the flow-control allowance (counted
     in packets, the unit the window protects receivers against). *)
  let allowance =
    Flow.allowance t.const t.flow ~fcc:tok.fcc ~members:(Array.length t.ring)
  in
  Stats.Histogram.observe t.allowance_hist (float_of_int allowance);
  let elements = collect_for_packets t allowance in
  let groups = Packing.pack_elements t.const elements in
  let copies = max 1 (t.lower.copies_per_send ()) in
  let ring_id = t.ring_id in
  let still_valid () =
    (not t.crashed) && t.state = Operational && ring_id = t.ring_id
  in
  (* Each packet is a separate CPU job so frames reach the wire one by
     one, as successive sendmsg calls do — the wire must not idle while
     a whole burst is "being prepared". The CPU is FIFO, so order is
     preserved and the token forward (the last job) leaves after the
     data. *)
  let packet_cost (p : Wire.packet) =
    let per_copy =
      Const.frame_cpu_cost t.const
        ~payload_bytes:(Wire.packet_payload_bytes t.const p)
    in
    Vtime.ns
      ((copies * per_copy) + (List.length p.elements * t.const.cpu_message_cost))
  in
  (* Retransmissions: identical copies of the original packets. If two
     nodes miss the same message only one retransmission occurs, because
     the first server removes the request from the token (Sec. 2). *)
  List.iter
    (fun (p : Wire.packet) ->
      Cpu.submit t.cpu ~cost:(packet_cost p) (fun () ->
          if still_valid () then begin
            t.stats.retransmissions_served <- t.stats.retransmissions_served + 1;
            if tel_active t then
              tel_emit t (Telemetry.Rtr_serve { node = t.me; seq = p.seq });
            t.lower.send_data p
          end))
    retrans_packets;
  (* New broadcasts, sequenced after the token's seq. *)
  let seq = ref tok.seq in
  List.iter
    (fun elements ->
      incr seq;
      let packet =
        { Wire.ring_id = t.ring_id; seq = !seq; sender = t.me; elements }
      in
      (* Own packets are filed locally: the sender delivers its own
         messages in the same total order and serves retransmissions. *)
      ignore (Recv_buffer.store t.store packet);
      t.stats.sent_packets <- t.stats.sent_packets + 1;
      if tel_active t then begin
        tel_emit t
          (Telemetry.Msg_tx
             {
               node = t.me;
               seq = !seq;
               bytes = Wire.packet_payload_bytes t.const packet;
             });
        (* The join point between trace ids and wire packets: each
           element of the packet records that its message (fragment)
           was assigned this ring sequence number. *)
        List.iter
          (fun (e : Wire.element) ->
            let frag, frags =
              match e.fragment with
              | None -> (0, 1)
              | Some f -> (f.index, f.count)
            in
            tel_emit t
              (Telemetry.Msg_ordered
                 {
                   node = t.me;
                   tid =
                     Causal.tid_of ~origin:e.message.origin
                       ~app_seq:e.message.app_seq;
                   ring_id = t.ring_id;
                   seq = !seq;
                   frag;
                   frags;
                 }))
          elements
      end;
      Cpu.submit t.cpu ~cost:(packet_cost packet) (fun () ->
          if still_valid () then t.lower.send_data packet))
    groups;
  let new_messages =
    List.length
      (List.filter
         (fun (e : Wire.element) ->
           match e.fragment with None -> true | Some f -> f.index = 0)
         elements)
  in
  t.stats.sent_messages <- t.stats.sent_messages + new_messages;
  let token_cost =
    Vtime.ns (t.const.cpu_token_cost + (copies * t.const.cpu_frame_cost))
  in
  Cpu.submit t.cpu ~cost:token_cost (fun () ->
      if still_valid () then
        complete_token_visit t tok ~rotation ~rtr_left ~new_seq:!seq
          ~sent:(List.length groups))

and complete_token_visit t tok ~rotation ~rtr_left ~new_seq ~sent =
  let seq = ref new_seq in
  (* Request what we are missing. *)
  let missing = Recv_buffer.missing_up_to t.store !seq in
  t.stats.retransmissions_requested <-
    t.stats.retransmissions_requested + List.length missing;
  if tel_active t && missing <> [] then
    tel_emit t
      (Telemetry.Rtr_request
         {
           node = t.me;
           count = List.length missing;
           low = List.fold_left min max_int missing;
           high = List.fold_left max min_int missing;
         });
  let rtr = Retransmit.truncate 200 (Retransmit.merge rtr_left missing) in
  (* aru: lower it to our own, or raise it if we set it last. *)
  let aru, aru_setter =
    let mine = Recv_buffer.my_aru t.store in
    if mine < tok.aru || tok.aru_setter = t.me then (mine, t.me)
    else (tok.aru, tok.aru_setter)
  in
  let fcc = Flow.contribute t.flow ~fcc:tok.fcc ~sent in
  let tok' =
    {
      tok with
      Token.seq = !seq;
      rotation;
      hops = tok.hops + 1;
      aru;
      aru_setter;
      fcc;
      rtr;
    }
  in
  (* Stability GC: any member still missing a packet lowers the token's
     aru below it within one rotation, so the minimum over several
     consecutive visits is at or below every member's aru — everything
     at or below it is present everywhere and our retained copies can
     go. (The minimum matters: right after a broadcast the sender raises
     the aru before a lagging member has had its turn to lower it.) *)
  t.aru_history <- aru :: t.aru_history;
  (match t.aru_history with
  | a1 :: a2 :: _ ->
    (* aru is monotone evidence: two consecutive sightings bound what
       every member has (the setter only raises it with everything in
       hand; others lower it to their own aru). *)
    t.safe_horizon <- max t.safe_horizon (min a1 a2)
  | _ -> ());
  (match t.aru_history with
  | a :: b :: c :: d :: _ ->
    Recv_buffer.gc_below t.store (min (min a b) (min c d));
    t.aru_history <- Retransmit.truncate 4 t.aru_history
  | _ -> ());
  let dst = Membership.next_on_ring t.ring ~me:t.me in
  if tel_active t then
    tel_emit t
      (Telemetry.Token_tx
         {
           node = t.me;
           tok = tok_info tok';
           aru;
           rtr_len = List.length rtr;
           dst;
         });
  t.lower.send_token ~dst tok';
  t.last_sent_token <- Some tok';
  Timer.start_if_stopped (get_timer t.token_retransmit_timer)
    t.const.token_retransmit_interval;
  deliver_ready t

(* --- merge detection (Corosync's memb_merge_detect) ----------------- *)

let probe_expired t =
  if (not t.crashed) && t.state = Operational then begin
    t.lower.send_probe { Wire.probe_sender = t.me; probe_ring_id = t.ring_id };
    Timer.start_if_stopped (get_timer t.probe_timer) t.const.merge_detect_interval
  end

let recv_probe t (p : Wire.probe) =
  if (not t.crashed) && t.state = Operational && p.probe_ring_id <> t.ring_id
  then begin
    (* Another ring coexists on the (healed) networks: merge. *)
    t.max_ring_id_seen <- max t.max_ring_id_seen p.probe_ring_id;
    enter_gather t
      ~reason:(Printf.sprintf "merge probe from N%d (ring %d)" p.probe_sender
                 p.probe_ring_id)
  end

let recv_commit t (cm : Wire.commit) =
  if t.crashed || cm.cm_ring_id <= t.ring_id then ()
  else if not (Array.exists (fun n -> n = t.me) cm.cm_ring) then ()
  else begin
    t.max_ring_id_seen <- max t.max_ring_id_seen cm.cm_ring_id;
    let rep = Membership.leader cm.cm_ring in
    if cm.cm_round = 1 then
      if rep = t.me then begin
        (* Round 1 returned to the representative: if every member
           answered, distribute the collected info and start recovering;
           otherwise let the phase deadline restart the gathering. *)
        let answered n =
          List.exists (fun (i : Wire.member_info) -> i.mi_node = n) cm.cm_info
        in
        if Array.for_all answered cm.cm_ring && t.state = Commit_phase then begin
          let cm2 = { cm with Wire.cm_round = 2 } in
          begin_recover t cm2;
          send_commit_next t cm2;
          Timer.start_if_stopped (get_timer t.commit_timer)
            t.const.token_retransmit_interval
        end
      end
      else begin
        match t.state with
        | Gather | Commit_phase | Idle | Operational ->
          (* Adopt the proposal: record our old-ring position and pass
             the commit on. Re-receipt just re-forwards (idempotent), so
             the representative's retransmissions heal lost hops. *)
          let info =
            my_member_info t
            :: List.filter
                 (fun (i : Wire.member_info) -> i.mi_node <> t.me)
                 cm.cm_info
          in
          let cm' = { cm with Wire.cm_info = info } in
          t.state <- Commit_phase;
          t.pending_commit <- Some cm';
          (match t.join_timer with Some tm -> Timer.stop tm | None -> ());
          (match t.token_loss_timer with Some tm -> Timer.stop tm | None -> ());
          Timer.restart (get_timer t.consensus_timer) t.const.consensus_timeout;
          send_commit_next t cm'
        | Recover -> ()
      end
    else begin
      (* Round 2: the full member list. Start recovering, and forward so
         the members after us learn it too; duplicates are re-forwarded
         to heal losses but never restart a recovery in progress. *)
      if rep = t.me then ()
      else
        let already =
          match (t.state, t.pending_commit) with
          | Recover, Some p ->
            p.Wire.cm_ring_id = cm.cm_ring_id && p.Wire.cm_round = 2
          | _ -> false
        in
        if already then send_commit_next t cm
        else begin
          begin_recover t cm;
          send_commit_next t cm
        end
    end
  end

(* --- inputs --------------------------------------------------------- *)

let rec token_arrived t (tok : Token.t) =
  if t.crashed then ()
  else if tok.ring_id > t.ring_id then begin
    t.max_ring_id_seen <- max t.max_ring_id_seen tok.ring_id;
    match (t.state, t.pending_commit) with
    | Recover, Some cm when cm.Wire.cm_ring_id = tok.ring_id ->
      (* The new ring is already rotating: our recovery window is over.
         Install with what we have and process the token normally. *)
      finish_recovery t;
      token_arrived t tok
    | _ ->
      (* A newer ring's token: join it if we are a member (the fallback
         path for members that missed the commit exchange); otherwise
         keep gathering so the members notice us and reconfigure. *)
      if Array.exists (fun n -> n = t.me) tok.ring then begin
        install_new_ring t ~ring_id:tok.ring_id ~members:tok.ring;
        process_token t tok
      end
      else if t.state <> Gather then enter_gather t ~reason:"foreign-ring token"
  end
  else if tok.ring_id < t.ring_id || t.state <> Operational then ()
  else
    let fresh =
      match t.last_rx_token with
      | None -> true
      | Some last -> Token.newer_than tok ~than:last
    in
    if fresh then process_token t tok
    else begin
      t.stats.duplicate_tokens <- t.stats.duplicate_tokens + 1;
      if tel_active t then
        tel_emit t
          (Telemetry.Dup_drop
             { node = t.me; kind = Telemetry.Drop_token; seq = tok.seq });
      Cpu.charge t.cpu ~cost:t.const.cpu_duplicate_cost
    end

let recv_data t (p : Wire.packet) =
  if t.crashed then ()
  else if p.ring_id <> t.ring_id then begin
    if p.ring_id > t.ring_id then begin
      t.max_ring_id_seen <- max t.max_ring_id_seen p.ring_id;
      let recovering_towards_it =
        match (t.state, t.pending_commit) with
        | (Recover | Commit_phase), Some cm -> cm.Wire.cm_ring_id >= p.ring_id
        | _ -> false
      in
      (* Data from a newer ring means we were left out of a
         reconfiguration — rejoin, and advertise the newer ring id in
         our Joins so the members treat them as fresh. (Unless we are
         mid-transition to that very ring.) *)
      if (not recovering_towards_it) && t.state <> Gather then
        enter_gather t ~reason:"foreign-ring data"
    end
  end
  else
    match Recv_buffer.store t.store p with
    | `Duplicate ->
      t.stats.duplicate_packets <- t.stats.duplicate_packets + 1;
      if tel_active t then
        tel_emit t
          (Telemetry.Dup_drop
             { node = t.me; kind = Telemetry.Drop_packet; seq = p.seq });
      Cpu.charge t.cpu ~cost:t.const.cpu_duplicate_cost
    | `New ->
      Cpu.charge t.cpu
        ~cost:
          (Vtime.ns (List.length p.elements * t.const.cpu_message_cost));
      (* Receiving a sequence number above our forwarded token's proves
         the successor received the token. *)
      (match t.last_sent_token with
      | Some sent when p.seq > sent.Token.seq -> evidence_of_token_progress t
      | _ -> ());
      deliver_ready t;
      if t.state = Recover then check_recovery_complete t

let recv_join t (j : Wire.join) =
  if t.crashed then ()
  else begin
    t.max_ring_id_seen <- max t.max_ring_id_seen j.max_ring_id;
    match t.state with
    | Commit_phase | Recover ->
      (* Mid-transition; stragglers and newcomers are picked up by the
         next gather (merge probes guarantee one happens). *)
      ()
    | Gather ->
      if not (List.exists (fun (o : Wire.join) -> o.sender = j.sender) t.joins)
      then t.joins <- j :: t.joins
    | Operational | Idle ->
      (* Joins from current members that do not name a ring newer than
         ours are stragglers from the reformation that created this ring
         (they raced with the new ring's own traffic); acting on them
         would tear the ring down in a livelock. A join from an outsider
         always warrants reconfiguration, as does any join naming a
         newer ring. *)
      let member = Array.exists (fun n -> n = j.sender) t.ring in
      if j.max_ring_id > t.ring_id || not member then begin
        enter_gather t ~reason:(Printf.sprintf "join from N%d" j.sender);
        t.joins <- [ j ]
      end
  end

(* --- construction and control -------------------------------------- *)

let allowance_buckets = Array.init 33 float_of_int

let create sim ~cpu ~const ~me ~lower ?telemetry callbacks =
  let rotation_hist, allowance_hist =
    match telemetry with
    | Some tl ->
      ( Telemetry.histogram tl (Printf.sprintf "srp.%d.rotation_ms" me),
        Telemetry.histogram ~buckets:allowance_buckets tl
          (Printf.sprintf "flow.%d.allowance" me) )
    | None ->
      ( Stats.Histogram.create ~buckets:Telemetry.default_ms_buckets,
        Stats.Histogram.create ~buckets:allowance_buckets )
  in
  let t =
    {
      sim;
      cpu;
      const;
      me;
      lower;
      telemetry;
      callbacks;
      stats = fresh_stats ();
      store = Recv_buffer.create ();
      pending = pending_create ();
      safe_horizon = 0;
      rotation_hist;
      rotation_started = Vtime.ns (-1);
      allowance_hist;
      flow = Flow.create ();
      send_queue = Queue.create ();
      pending_elements = [];
      supplier = None;
      app_seq = 0;
      state = Idle;
      ring = [| me |];
      ring_id = 0;
      last_rx_token = None;
      last_sent_token = None;
      aru_history = [];
      reassembly = Hashtbl.create 8;
      joins = [];
      pending_commit = None;
      recover_target = 0;
      max_ring_id_seen = 0;
      crashed = false;
      probe_timer = None;
      commit_timer = None;
      token_loss_timer = None;
      token_retransmit_timer = None;
      join_timer = None;
      consensus_timer = None;
    }
  in
  t.token_loss_timer <-
    Some (Timer.create sim ~name:"token-loss" ~callback:(fun () -> token_loss_expired t ()));
  t.token_retransmit_timer <-
    Some
      (Timer.create sim ~name:"token-retransmit"
         ~callback:(fun () -> token_retransmit_expired t ()));
  t.join_timer <-
    Some (Timer.create sim ~name:"join" ~callback:(fun () -> join_timer_expired t ()));
  t.consensus_timer <-
    Some
      (Timer.create sim ~name:"consensus" ~callback:(fun () -> consensus_expired t ()));
  t.probe_timer <-
    Some (Timer.create sim ~name:"merge-probe" ~callback:(fun () -> probe_expired t));
  t.commit_timer <-
    Some
      (Timer.create sim ~name:"commit-retry"
         ~callback:(fun () -> commit_retry_expired t));
  (* Expose the protocol counters through the registry as gauges; the
     counters themselves stay plain record fields so the hot path never
     pays a lookup. *)
  (match telemetry with
  | Some tl ->
    let g name read =
      Telemetry.gauge tl
        (Printf.sprintf "srp.%d.%s" me name)
        (fun () -> float_of_int (read ()))
    in
    g "delivered_messages" (fun () -> t.stats.delivered_messages);
    g "delivered_bytes" (fun () -> t.stats.delivered_bytes);
    g "sent_messages" (fun () -> t.stats.sent_messages);
    g "sent_packets" (fun () -> t.stats.sent_packets);
    g "duplicate_packets" (fun () -> t.stats.duplicate_packets);
    g "duplicate_tokens" (fun () -> t.stats.duplicate_tokens);
    g "retransmissions_served" (fun () -> t.stats.retransmissions_served);
    g "retransmissions_requested" (fun () -> t.stats.retransmissions_requested);
    g "token_visits" (fun () -> t.stats.token_visits);
    g "token_retransmits" (fun () -> t.stats.token_retransmits);
    Telemetry.gauge tl
      (Printf.sprintf "membership.%d.ring_changes" me)
      (fun () -> float_of_int t.stats.ring_changes);
    Telemetry.gauge tl
      (Printf.sprintf "membership.%d.gather_entries" me)
      (fun () -> float_of_int t.stats.gather_entries)
  | None -> ());
  t

let submit t ~size ?(safe = false) ?(data = Message.Blob) () =
  t.app_seq <- t.app_seq + 1;
  if tel_active t then
    tel_emit t
      (Telemetry.Msg_originate
         {
           node = t.me;
           tid = Causal.tid_of ~origin:t.me ~app_seq:t.app_seq;
           bytes = size;
           safe;
         });
  Queue.add
    (Message.make ~origin:t.me ~app_seq:t.app_seq ~size ~safe ~data ())
    t.send_queue

let last_app_seq t = t.app_seq

let set_supplier t pull = t.supplier <- Some pull

let install_ring t ~ring_id ~members =
  install_new_ring t ~ring_id ~members

let bootstrap_token t =
  if t.state <> Operational then
    invalid_arg "Srp.bootstrap_token: install_ring first";
  process_token t (Token.initial ~ring:t.ring ~ring_id:t.ring_id)

let start_gathering t = enter_gather t ~reason:"cold start"

let crash t =
  t.crashed <- true;
  stop_all_timers t

let recover t =
  if not t.crashed then invalid_arg "Srp.recover: node is not crashed";
  (* A reboot: all volatile protocol state is gone; the submission
     counter survives conceptually as "a new incarnation never reuses
     app_seq", which keeps end-to-end bookkeeping unambiguous. *)
  t.crashed <- false;
  Recv_buffer.reset t.store;
  Queue.clear t.send_queue;
  t.pending.len <- 0;
  t.pending_elements <- [];
  t.safe_horizon <- 0;
  Flow.reset t.flow;
  Hashtbl.reset t.reassembly;
  t.state <- Idle;
  t.ring <- [| t.me |];
  t.ring_id <- 0;
  t.max_ring_id_seen <- 0;
  t.last_rx_token <- None;
  t.last_sent_token <- None;
  t.aru_history <- [];
  t.joins <- [];
  enter_gather t ~reason:"recovery"
