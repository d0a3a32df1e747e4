(* The pure per-node scheduler: one virtual clock, one event heap, one
   timer wheel, one tie counter. This is the unit the parallel simulator
   core replicates per node — it owns no randomness and no global state,
   so a partition advanced to a horizon is a deterministic function of
   the events fed to it, regardless of which domain ran it.

   One-shot events (frame deliveries, CPU completions) live in the
   heap; cancel/re-arm protocol timers live in the wheel. A single tie
   counter spans both, so events popping from either structure form one
   globally FIFO-stable (time, tie) sequence — run order is identical
   to a single-queue simulator. *)

type t = {
  mutable clock : Vtime.t;
  queue : (unit -> unit) Event_queue.t;
  wheel : (unit -> unit) Timer_wheel.t;
  mutable next_tie : int;
  mutable events : int;
}

(* Both handles are the queue entry itself (unboxed), so scheduling
   allocates the caller's closure and one entry, nothing more. *)
type handle = Event_queue.handle
type timer = Timer_wheel.handle

let create () =
  {
    clock = Vtime.zero;
    queue = Event_queue.create ();
    wheel = Timer_wheel.create ();
    next_tie = 0;
    events = 0;
  }

let now t = t.clock
let events_processed t = t.events

let take_tie t =
  let tie = t.next_tie in
  t.next_tie <- tie + 1;
  tie

let schedule_at t ~time f =
  if Vtime.(time < t.clock) then
    invalid_arg "Partition.schedule_at: time is in the past";
  Event_queue.push_tie t.queue ~time ~tie:(take_tie t) f

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Partition.schedule: negative delay";
  schedule_at t ~time:(Vtime.add t.clock delay) f

let schedule_timer t ~delay f =
  if delay < 0 then invalid_arg "Partition.schedule_timer: negative delay";
  let time = Vtime.add t.clock delay in
  Timer_wheel.push t.wheel ~time ~tie:(take_tie t) f

let cancel t h = ignore (Event_queue.cancel t.queue h)
let cancel_timer t h = ignore (Timer_wheel.cancel t.wheel h)

(* Which structure holds the next live event. The drain loops run once
   per simulated event, so they never build the options and tuples of
   [Event_queue.peek_key]/[pop]: both structures are pruned so their
   flat time mirrors are exact, the mirrors are compared, and only a
   time tie consults the tie ranks. [From_heap] wins equal times only by
   tie rank, preserving the global FIFO order. Constant constructors,
   so the answer is an immediate. *)
type source = Nothing | From_heap | From_wheel

let next_source t =
  Event_queue.prune t.queue;
  Timer_wheel.settle t.wheel;
  let heap_empty = Event_queue.is_empty t.queue in
  if Timer_wheel.is_empty t.wheel then
    if heap_empty then Nothing else From_heap
  else if heap_empty then From_wheel
  else
    let ht = Event_queue.peek_time_raw t.queue
    and wt = Timer_wheel.peek_time_raw t.wheel in
    if
      Vtime.(ht < wt)
      || (ht = wt
         && Event_queue.top_tie t.queue < Timer_wheel.min_tie t.wheel)
    then From_heap
    else From_wheel

(* Time of the event [next_source] picked; [Vtime.never] for none. *)
let[@inline] source_time t = function
  | Nothing -> Vtime.never
  | From_heap -> Event_queue.peek_time_raw t.queue
  | From_wheel -> Timer_wheel.peek_time_raw t.wheel

let fire t src =
  t.clock <- source_time t src;
  t.events <- t.events + 1;
  let f =
    match src with
    | From_wheel -> Timer_wheel.take t.wheel
    | From_heap | Nothing -> Event_queue.take t.queue
  in
  f ()

(* Allocation-free peek for the exchange's per-window horizon scan.
   Only the minimum time matters there, never which structure holds it,
   so the tie arbitration of [next_source] is skipped entirely. *)
let[@inline] next_time_raw t =
  Vtime.min
    (Event_queue.peek_time_raw t.queue)
    (Timer_wheel.peek_time_raw t.wheel)

let step t =
  match next_source t with
  | Nothing -> false
  | src ->
    fire t src;
    true

(* Pop and run every event with timestamp <= limit; the clock follows
   the events and is NOT bumped to [limit] at the end. The exchange
   layer drains the coordinator partition this way so the clock always
   reads the time of the event being executed, never a horizon the
   window has not reached. *)
let rec drain_until t limit =
  match next_source t with
  | Nothing -> ()
  | src ->
    if Vtime.(source_time t src <= limit) then begin
      fire t src;
      drain_until t limit
    end

let run_until t limit =
  drain_until t limit;
  t.clock <- Vtime.max t.clock limit

(* Pop and run events while the earliest timestamp is within [cap ()],
   re-reading the cap between events. The adaptive solo window in the
   exchange layer runs one partition far past the static lookahead
   bound under a cap that shrinks the moment the partition buffers
   cross-partition work (a frame entering an outbox): re-evaluating the
   cap per pop is what lets the shrink take effect before the next
   event fires. The clock follows the events, as in [drain_until]. *)
let rec drain_while t ~cap =
  match next_source t with
  | Nothing -> ()
  | src ->
    if Vtime.(source_time t src <= cap ()) then begin
      fire t src;
      drain_while t ~cap
    end

let run t = while step t do () done

let pending t = Event_queue.length t.queue + Timer_wheel.length t.wheel

(* Exchange-only escape hatch: the coordinator replays buffered
   cross-partition work (merged sends, drained telemetry) with the
   clock set to each item's own timestamp, which can rewind within the
   just-completed window. Never call this from model code. *)
let[@inline] unsafe_set_clock t time = t.clock <- time
