type t = {
  sim : Sim.t;
  name : string;
  (* The event handed to the simulator on every [start]: built once, so
     a re-arm allocates only the queue entry and its bookkeeping. *)
  mutable fire : unit -> unit;
  mutable handle : Sim.timer option;
  mutable at : Vtime.t;
}

let create sim ~name ~callback =
  let t = { sim; name; fire = ignore; handle = None; at = Vtime.zero } in
  t.fire <-
    (fun () ->
      t.handle <- None;
      callback ());
  t

let is_running t = Option.is_some t.handle

let fires_at t = if is_running t then Some t.at else None

let start t delay =
  if is_running t then
    invalid_arg (Printf.sprintf "Timer.start: %s already running" t.name);
  t.at <- Vtime.add (Sim.now t.sim) delay;
  t.handle <- Some (Sim.schedule_timer t.sim ~delay t.fire)

let start_if_stopped t delay = if not (is_running t) then start t delay

let stop t =
  match t.handle with
  | None -> ()
  | Some handle ->
    Sim.cancel_timer t.sim handle;
    t.handle <- None

let restart t delay =
  stop t;
  start t delay
