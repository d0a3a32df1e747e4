type t = {
  mutable down : bool;
  send_blocked : (Addr.node_id, unit) Hashtbl.t;
  recv_blocked : (Addr.node_id, unit) Hashtbl.t;
  pair_blocked : (Addr.node_id * Addr.node_id, unit) Hashtbl.t;
  mutable loss_prob : float;
  mutable corrupt_prob : float;
  (* Gray-failure dimensions. The Gilbert–Elliott chain: in the good
     state every frame passes (the uniform [loss_prob] still applies
     independently); in the bad state every frame is dropped. The chain
     steps once per delivery attempt, so a burst is correlated across
     consecutive deliveries on the network. *)
  mutable burst_p_enter : float;
  mutable burst_p_exit : float;
  mutable burst_bad : bool;
  dir_loss : (Addr.node_id * Addr.node_id, float) Hashtbl.t;
  mutable delay_factor : float;  (* >= 1.0; 1.0 = off *)
  mutable spike_prob : float;
  mutable spike_ns : int;  (* spike magnitude: uniform in [1, spike_ns] *)
  mutable dup_prob : float;
  mutable reorder_prob : float;
  mutable notify : (string -> unit) option;
}

let create () =
  {
    down = false;
    send_blocked = Hashtbl.create 8;
    recv_blocked = Hashtbl.create 8;
    pair_blocked = Hashtbl.create 8;
    loss_prob = 0.0;
    corrupt_prob = 0.0;
    burst_p_enter = 0.0;
    burst_p_exit = 1.0;
    burst_bad = false;
    dir_loss = Hashtbl.create 8;
    delay_factor = 1.0;
    spike_prob = 0.0;
    spike_ns = 0;
    dup_prob = 0.0;
    reorder_prob = 0.0;
    notify = None;
  }

let set_notify t f = t.notify <- Some f

let notify t msg = match t.notify with Some f -> f msg | None -> ()

let set_down t b =
  if t.down <> b then notify t (if b then "down" else "up");
  t.down <- b

let is_down t = t.down

(* Blocking is idempotent; notify only on actual transitions so the
   Net_status telemetry stream stays one event per state change. *)
let block_send t n =
  if not (Hashtbl.mem t.send_blocked n) then begin
    Hashtbl.replace t.send_blocked n ();
    notify t (Printf.sprintf "send blocked N%d" n)
  end

let unblock_send t n =
  if Hashtbl.mem t.send_blocked n then begin
    Hashtbl.remove t.send_blocked n;
    notify t (Printf.sprintf "send unblocked N%d" n)
  end

let send_blocked t n = Hashtbl.mem t.send_blocked n

let block_recv t n =
  if not (Hashtbl.mem t.recv_blocked n) then begin
    Hashtbl.replace t.recv_blocked n ();
    notify t (Printf.sprintf "recv blocked N%d" n)
  end

let unblock_recv t n =
  if Hashtbl.mem t.recv_blocked n then begin
    Hashtbl.remove t.recv_blocked n;
    notify t (Printf.sprintf "recv unblocked N%d" n)
  end

let recv_blocked t n = Hashtbl.mem t.recv_blocked n

let block_pair t ~src ~dst =
  if not (Hashtbl.mem t.pair_blocked (src, dst)) then begin
    Hashtbl.replace t.pair_blocked (src, dst) ();
    notify t (Printf.sprintf "pair blocked N%d->N%d" src dst)
  end

let unblock_pair t ~src ~dst =
  if Hashtbl.mem t.pair_blocked (src, dst) then begin
    Hashtbl.remove t.pair_blocked (src, dst);
    notify t (Printf.sprintf "pair unblocked N%d->N%d" src dst)
  end

let set_loss_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Fault.set_loss_probability";
  if t.loss_prob <> p then notify t (Printf.sprintf "loss probability %.3g" p);
  t.loss_prob <- p

let loss_probability t = t.loss_prob

let clamp01 p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p

let set_loss t p = set_loss_probability t (clamp01 p)

let loss_rate = loss_probability

let set_corruption_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Fault.set_corruption_probability";
  if t.corrupt_prob <> p then
    notify t (Printf.sprintf "corruption probability %.3g" p);
  t.corrupt_prob <- p

let corruption_probability t = t.corrupt_prob

let set_corruption t p = set_corruption_probability t (clamp01 p)

(* --- gray-failure dimensions ---------------------------------------- *)

let set_burst_loss t ~p_enter ~p_exit =
  let p_enter = clamp01 p_enter in
  (* a zero exit probability would trap the chain in the bad state
     forever; floor it so every burst eventually ends *)
  let p_exit =
    let p = clamp01 p_exit in
    if p_enter > 0.0 && p <= 0.0 then 0.001 else p
  in
  if t.burst_p_enter <> p_enter || t.burst_p_exit <> p_exit then
    notify t (Printf.sprintf "burst loss enter %.3g exit %.3g" p_enter p_exit);
  t.burst_p_enter <- p_enter;
  t.burst_p_exit <- p_exit;
  (* disabling the model also resets the chain, so re-enabling later
     starts from the good state like a fresh fault *)
  if p_enter = 0.0 then t.burst_bad <- false

let burst_loss t = (t.burst_p_enter, t.burst_p_exit)

let burst_enabled t = t.burst_p_enter > 0.0

let in_burst t = t.burst_bad

let set_in_burst t b = t.burst_bad <- b

let set_dir_loss t ~src ~dst p =
  let p = clamp01 p in
  let current =
    match Hashtbl.find_opt t.dir_loss (src, dst) with Some p -> p | None -> 0.0
  in
  if current <> p then begin
    notify t (Printf.sprintf "dir loss N%d->N%d %.3g" src dst p);
    if p = 0.0 then Hashtbl.remove t.dir_loss (src, dst)
    else Hashtbl.replace t.dir_loss (src, dst) p
  end

let dir_loss_probability t ~src ~dst =
  (* O(1)-length guard, like [delivers]: the fault-free fast path does
     no hashing and allocates no key tuple *)
  if Hashtbl.length t.dir_loss = 0 then 0.0
  else
    match Hashtbl.find_opt t.dir_loss (src, dst) with
    | Some p -> p
    | None -> 0.0

let set_delay t ~factor ~spike_prob ~spike_ns =
  let factor = if factor < 1.0 then 1.0 else factor in
  let spike_prob = clamp01 spike_prob in
  let spike_ns = if spike_ns < 0 then 0 else spike_ns in
  if
    t.delay_factor <> factor || t.spike_prob <> spike_prob
    || t.spike_ns <> spike_ns
  then
    notify t
      (Printf.sprintf "delay factor %.3g spike %.3g/%dns" factor spike_prob
         spike_ns);
  t.delay_factor <- factor;
  t.spike_prob <- spike_prob;
  t.spike_ns <- spike_ns

let delay_factor t = t.delay_factor

let delay_spike t = (t.spike_prob, t.spike_ns)

let spike_enabled t = t.spike_prob > 0.0 && t.spike_ns > 0

let set_duplicate t p =
  let p = clamp01 p in
  if t.dup_prob <> p then notify t (Printf.sprintf "duplicate %.3g" p);
  t.dup_prob <- p

let duplicate_probability t = t.dup_prob

let set_reorder t p =
  let p = clamp01 p in
  if t.reorder_prob <> p then notify t (Printf.sprintf "reorder %.3g" p);
  t.reorder_prob <- p

let reorder_probability t = t.reorder_prob

let delivers t ~src ~dst =
  (* Checked once per frame delivery: guard each table by its O(1)
     length so the fault-free fast path does no hashing and allocates
     no key tuple. *)
  (not t.down)
  && (Hashtbl.length t.send_blocked = 0 || not (send_blocked t src))
  && (Hashtbl.length t.recv_blocked = 0 || not (recv_blocked t dst))
  && (Hashtbl.length t.pair_blocked = 0
      || not (Hashtbl.mem t.pair_blocked (src, dst)))

let heal t =
  if
    t.down || t.loss_prob > 0.0 || t.corrupt_prob > 0.0
    || Hashtbl.length t.send_blocked > 0
    || Hashtbl.length t.recv_blocked > 0
    || Hashtbl.length t.pair_blocked > 0
    || t.burst_p_enter > 0.0 || t.burst_bad
    || Hashtbl.length t.dir_loss > 0
    || t.delay_factor > 1.0 || t.spike_prob > 0.0 || t.spike_ns > 0
    || t.dup_prob > 0.0 || t.reorder_prob > 0.0
  then notify t "healed";
  t.down <- false;
  Hashtbl.reset t.send_blocked;
  Hashtbl.reset t.recv_blocked;
  Hashtbl.reset t.pair_blocked;
  t.loss_prob <- 0.0;
  t.corrupt_prob <- 0.0;
  t.burst_p_enter <- 0.0;
  t.burst_p_exit <- 1.0;
  t.burst_bad <- false;
  Hashtbl.reset t.dir_loss;
  t.delay_factor <- 1.0;
  t.spike_prob <- 0.0;
  t.spike_ns <- 0;
  t.dup_prob <- 0.0;
  t.reorder_prob <- 0.0
