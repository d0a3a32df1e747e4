(* Conservative parallel discrete-event exchange.
   ==============================================

   Drives one coordinator partition (the "global" Sim: chaos schedules,
   fault samplers, workload pacing owned by the harness) plus one Sim
   per simulated node, in lookahead-bounded windows:

     nt = min next-event time over global, nodes, and barrier hooks
     h0 = max(horizon, nt)                  (idle-jump: skip dead air)
     h1 = min(limit, h0 + lookahead, next coordinator event after h0)

   Per window: coordinator events <= h0 drain first (single-threaded),
   then every node partition with work <= h1 advances independently —
   this is the parallel section — then the barrier hooks run
   (frame-outbox flush, telemetry drain) and the horizon becomes h1.

   Coordinator events are window boundaries: an event at tg > h0 caps
   h1 and runs at the start of a later window, after every partition
   has advanced through tg. That makes the interleaving of coordinator
   work with node work a canonical (time-ordered) property of the
   simulation content, independent of how wide any window happened to
   be — the invariant that lets window batching below collapse windows
   without changing results.

   Safety: the lookahead is required to be <= the minimum cross-node
   network latency, and cross-node interaction happens only through
   frames. A frame sent at s >= h0 arrives at >= s + latency >=
   h0 + lookahead >= h1, so deliveries scheduled at the barrier always
   land at or after every partition clock: no partition ever receives
   work in its past.

   Window batching (on by default under the cluster, [batching] here):

   - Skip-flush: a barrier where no hook reports pending work (empty
     outboxes, empty telemetry buffers) skips the flush calls entirely.
     Flushing nothing is a no-op, so this is observationally identical
     and only removes per-window overhead.

   - Adaptive solo windows: when no hook holds work and exactly one
     partition has events within [max_horizon_factor] lookaheads, that
     partition runs inline on the coordinator thread under a cap that
     starts at

       cap0 = min(limit, h0 + k*lookahead, next coordinator event,
                  next event of every other partition)

     and shrinks to s + lookahead the moment the running partition
     buffers cross-partition work at time s (re-checked between
     events). All flushed sends therefore satisfy s + lookahead >=
     cap = the new horizon, so barrier deliveries still land in no
     partition's past, and the flush replays them in the same globally
     monotone canonical (time, src, seq) order the one-lookahead loop
     would have used across its many barriers — same network RNG draw
     order, same arrival times, bitwise-identical results. Widening
     with two or more concurrently running partitions would NOT be
     sound (a receiver could pop an event beyond a sender's shrunken
     cap before observing it), which is why the fast path is solo-only;
     it is also where the win lives, since token rotation keeps mostly
     one node busy at a time.

   Determinism: partitioning is structural (always one partition per
   node), [domains] only sets how many OS domains execute them, and a
   partition is a pure function of its fed events (no RNG, no shared
   state — see Partition). Barrier hooks canonicalize cross-partition
   order themselves (the fabric merges sends by (time, src node, seq)).
   Hence results are bitwise-identical for any domain count >= 1 and
   invariant under window boundaries — including the batched ones. *)

(* [next] reports the earliest timestamp of work the hook has buffered,
   or [Vtime.never] when it holds none — a sentinel rather than an
   option, because the window loop folds these once per window (and
   once per *event* inside an adaptive solo window) and must not
   allocate. *)
type hook = { next : unit -> Vtime.t; flush : Vtime.t -> unit }

type stats = {
  mutable windows_run : int;
  mutable windows_batched : int; (* barriers whose flush was skipped *)
  mutable windows_widened : int; (* solo windows wider than one lookahead *)
  mutable max_window : Vtime.t; (* widest window so far *)
}

(* --- worker pool ----------------------------------------------------

   Spawned lazily on the first multi-domain window and kept parked
   between runs (see [shutdown]). Windows publish a slice of
   partitions; workers (and the coordinator itself) claim indices off a
   shared atomic counter — classic work stealing, safe because which
   partitions run is fixed before the window starts and partitions
   share no state.

   Wakeup is spin-then-block on both sides: windows arrive back to
   back in the hot loop, so workers burn a short bounded spin on the
   epoch counter (and the coordinator on the remaining-counter) before
   paying a futex round trip. The mutex still guards the sleeper
   bookkeeping, and the wait predicates re-check their condition under
   it, so no wakeup can be lost. *)

(* The claim and completion counters are the cross-domain write hot
   spots; give each its own cache line. An [Atomic.t] is a one-field
   box and the minor heap allocates sequentially, so a 7-word spacer
   allocated right after it keeps the next allocation off its line. *)
let padded_atomic v =
  let a = Atomic.make v in
  ignore (Sys.opaque_identity (Array.make 7 0));
  a

let spin_budget = 2000

type pool = {
  mutable pwork : Sim.t array;
  mutable pcount : int;
  mutable plimit : Vtime.t;
  mutable errors : (int * exn * Printexc.raw_backtrace) list; (* under m *)
  next : int Atomic.t;
  remaining : int Atomic.t;
  epoch : int Atomic.t;
  stop : bool Atomic.t;
  m : Mutex.t;
  work_cv : Condition.t; (* workers park here between windows *)
  done_cv : Condition.t; (* coordinator parks here for the barrier *)
  mutable sleepers : int; (* workers blocked on work_cv; under m *)
  mutable waiting : bool; (* coordinator blocked on done_cv; under m *)
  mutable doms : unit Domain.t list;
}

type t = {
  global : Sim.t;
  parts : Sim.t array;
  lookahead : Vtime.t;
  domains : int;
  batching : bool;
  max_horizon_factor : int;
  mutable horizon : Vtime.t;
  mutable hooks : hook list; (* registration order *)
  work : Sim.t array; (* scratch: partitions active this window *)
  ptimes : Vtime.t array; (* scratch: per-partition next-event times *)
  stats : stats;
  mutable pool : pool option; (* lazily spawned; joined by [shutdown] *)
  (* The adaptive solo window's cap and the poll that shrinks it, built
     once in [create] so a solo window allocates nothing. *)
  mutable solo_limit : Vtime.t;
  mutable poll_cap : unit -> Vtime.t;
}

(* These run up to three times per window (and once per event inside an
   adaptive solo window), so both are hand-rolled loops: no fold
   closures, just the unavoidable indirect call into each hook. *)
let rec hooks_next_from hooks acc =
  match hooks with
  | [] -> acc
  | (h : hook) :: rest -> hooks_next_from rest (Vtime.min acc (h.next ()))

let hooks_next t = hooks_next_from t.hooks Vtime.never

(* One poll of the adaptive solo window's cap: it shrinks to
   [s + lookahead] the moment a hook holds work from [s]. *)
let poll_solo_cap t =
  let s = hooks_next t in
  if s <> Vtime.never then begin
    let c = Vtime.add s t.lookahead in
    if Vtime.(c < t.solo_limit) then t.solo_limit <- c
  end;
  t.solo_limit

let create ?(domains = 1) ?(batching = false) ?(max_horizon_factor = 8)
    ~lookahead ~global ~parts () =
  if lookahead <= 0 then
    invalid_arg "Exchange.create: lookahead must be positive";
  if domains < 1 then invalid_arg "Exchange.create: domains must be >= 1";
  if max_horizon_factor < 1 then
    invalid_arg "Exchange.create: max_horizon_factor must be >= 1";
  let t =
    {
      global;
      parts;
      lookahead;
      domains;
      batching;
      max_horizon_factor;
      horizon = Vtime.zero;
      hooks = [];
      (* [global] is a placeholder; slots [0 .. count-1] are overwritten
         before every window and never read past [count]. *)
      work = Array.make (Array.length parts) global;
      ptimes = Array.make (Array.length parts) Vtime.never;
      stats =
        {
          windows_run = 0;
          windows_batched = 0;
          windows_widened = 0;
          max_window = Vtime.zero;
        };
      pool = None;
      solo_limit = Vtime.never;
      poll_cap = (fun () -> Vtime.never);
    }
  in
  t.poll_cap <- (fun () -> poll_solo_cap t);
  t

let horizon t = t.horizon
let lookahead t = t.lookahead
let domains t = t.domains
let batching t = t.batching
let max_horizon_factor t = t.max_horizon_factor

let stats t =
  (* snapshot: callers must not see later mutation *)
  {
    windows_run = t.stats.windows_run;
    windows_batched = t.stats.windows_batched;
    windows_widened = t.stats.windows_widened;
    max_window = t.stats.max_window;
  }

let events_processed t =
  Array.fold_left
    (fun acc p -> acc + Sim.events_processed p)
    (Sim.events_processed t.global)
    t.parts

let add_barrier_hook t ?(next = fun () -> Vtime.never) flush =
  t.hooks <- t.hooks @ [ { next; flush } ]

let pool_drain pool =
  let rec loop () =
    let i = Atomic.fetch_and_add pool.next 1 in
    if i < pool.pcount then begin
      (try Sim.run_until pool.pwork.(i) pool.plimit
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock pool.m;
         pool.errors <- (i, e, bt) :: pool.errors;
         Mutex.unlock pool.m);
      if Atomic.fetch_and_add pool.remaining (-1) = 1 then begin
        (* Last item done: wake the coordinator if it parked. Taking
           the mutex orders the decrement before its predicate
           re-check, so the wakeup cannot be lost; a spinning
           coordinator needs no signal at all. *)
        Mutex.lock pool.m;
        if pool.waiting then Condition.broadcast pool.done_cv;
        Mutex.unlock pool.m
      end;
      loop ()
    end
  in
  loop ()

let rec pool_worker pool my_epoch =
  let rec spin n =
    if Atomic.get pool.stop then `Stop
    else if Atomic.get pool.epoch <> my_epoch then `Work
    else if n = 0 then `Block
    else begin
      Domain.cpu_relax ();
      spin (n - 1)
    end
  in
  let decision =
    match spin spin_budget with
    | `Block ->
      Mutex.lock pool.m;
      pool.sleepers <- pool.sleepers + 1;
      while (not (Atomic.get pool.stop)) && Atomic.get pool.epoch = my_epoch do
        Condition.wait pool.work_cv pool.m
      done;
      pool.sleepers <- pool.sleepers - 1;
      Mutex.unlock pool.m;
      if Atomic.get pool.stop then `Stop else `Work
    | d -> d
  in
  match decision with
  | `Stop | `Block -> ()
  | `Work ->
    let epoch = Atomic.get pool.epoch in
    pool_drain pool;
    pool_worker pool epoch

let pool_start ~workers =
  let pool =
    {
      pwork = [||];
      pcount = 0;
      plimit = Vtime.zero;
      errors = [];
      next = padded_atomic 0;
      remaining = padded_atomic 0;
      epoch = padded_atomic 0;
      stop = Atomic.make false;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      sleepers = 0;
      waiting = false;
      doms = [];
    }
  in
  pool.doms <-
    List.init workers (fun _ -> Domain.spawn (fun () -> pool_worker pool 0));
  pool

let get_pool t =
  match t.pool with
  | Some pool -> pool
  | None ->
    let pool = pool_start ~workers:(t.domains - 1) in
    t.pool <- Some pool;
    pool

let shutdown t =
  match t.pool with
  | None -> ()
  | Some pool ->
    Atomic.set pool.stop true;
    Mutex.lock pool.m;
    Condition.broadcast pool.work_cv;
    Mutex.unlock pool.m;
    List.iter Domain.join pool.doms;
    pool.doms <- [];
    t.pool <- None

let live_workers t =
  match t.pool with None -> 0 | Some pool -> List.length pool.doms

(* Run [count] partitions from [work] up to [limit] on the pool, the
   coordinator stealing work alongside the workers. Re-raises the
   lowest-indexed worker exception (a deterministic choice, since which
   partitions fail is deterministic). *)
let pool_run_window pool work count limit =
  pool.pwork <- work;
  pool.pcount <- count;
  pool.plimit <- limit;
  pool.errors <- [];
  Atomic.set pool.remaining count;
  Atomic.set pool.next 0;
  Atomic.incr pool.epoch;
  Mutex.lock pool.m;
  if pool.sleepers > 0 then Condition.broadcast pool.work_cv;
  Mutex.unlock pool.m;
  pool_drain pool;
  let rec wait_spin n =
    if Atomic.get pool.remaining = 0 then ()
    else if n = 0 then begin
      Mutex.lock pool.m;
      pool.waiting <- true;
      while Atomic.get pool.remaining > 0 do
        Condition.wait pool.done_cv pool.m
      done;
      pool.waiting <- false;
      Mutex.unlock pool.m
    end
    else begin
      Domain.cpu_relax ();
      wait_spin (n - 1)
    end
  in
  wait_spin spin_budget;
  let errors =
    if pool.errors == [] then []
    else begin
      Mutex.lock pool.m;
      let e = pool.errors in
      Mutex.unlock pool.m;
      e
    end
  in
  match List.sort (fun (i, _, _) (j, _, _) -> compare i j) errors with
  | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
  | [] -> ()

(* --- the window loop ------------------------------------------------

   Everything below the per-window line runs a few hundred thousand
   times per simulated second, so the scans are written against the
   allocation-free sentinel peeks ([Sim.next_time_raw], hook [next]
   returning [Vtime.never]): plain int min/max folds, no options, no
   tuples, no per-window closures. *)


(* Existence-only variant for the barrier's skip decision: short-
   circuits on the first hook with pending work (registration order
   puts the frame outbox — the usual holder — first). *)
let rec hooks_all_empty hooks =
  match hooks with
  | [] -> true
  | (h : hook) :: rest -> h.next () = Vtime.never && hooks_all_empty rest

(* Barrier at [h1]: flush cross-partition traffic (canonical merge
   order lives in the hooks), then drain telemetry. Hooks may rewind
   the coordinator clock to replay items at their own timestamps;
   normalize afterwards. With batching on, a barrier where no hook
   holds work skips the flush calls — flushing nothing is a no-op, so
   skipping is observationally identical and only removes overhead. *)
let rec flush_hooks hooks h1 =
  match hooks with
  | [] -> ()
  | (h : hook) :: rest ->
    h.flush h1;
    flush_hooks rest h1

(* A barrier — skipped or not — leaves every hook empty: the flush
   branch drains them all, and the skip branch is taken only when they
   already were. The window loop relies on this to elide the hook scan
   in its steady state. *)
let barrier t h0 h1 =
  let st = t.stats in
  st.windows_run <- st.windows_run + 1;
  let width = Vtime.sub h1 h0 in
  if Vtime.(width > st.max_window) then st.max_window <- width;
  if t.batching && hooks_all_empty t.hooks then
    st.windows_batched <- st.windows_batched + 1
  else flush_hooks t.hooks h1;
  (* Hooks may have rewound the coordinator clock to replay items at
     their own timestamps; normalize (and cover the skip path). *)
  Sim.unsafe_set_clock t.global h1;
  t.horizon <- h1

(* The adaptive solo window's initial cap: with exactly one partition
   active at [h1] (the caller just counted), how far may it run alone?
   Up to just before the earliest event of any *other* partition,
   bounded by [wide_cap]. Stopping one nanosecond short matters: events
   at equal times on different partitions must run in one window, so
   that their sends reach one barrier and replay in canonical
   (time, source) order; a cap equal to another partition's next event
   would flush the soloist's send at that instant a barrier early, ahead
   of a lower-numbered node's. With a single active partition every
   other partition's next event is > h1, so the cap is always >= h1: no
   separate eligibility scan is needed — "work-set count = 1" is
   exactly the old best/second-best test. Reads the window's cached
   [ptimes]. *)
let solo_cap t solo wide_cap =
  let ptimes = t.ptimes in
  let cap = ref wide_cap in
  for i = 0 to Array.length ptimes - 1 do
    let tm = Array.unsafe_get ptimes i in
    if i <> solo && Vtime.(tm - 1 < !cap) then cap := tm - 1
  done;
  !cap

let run_until t limit =
  if Vtime.(limit < t.horizon) then ()
  else begin
    let parts = t.parts in
    let np = Array.length parts in
    let ptimes = t.ptimes in
    let wide_span = t.max_horizon_factor * t.lookahead in
    (* Hooks can hold work at the top of the loop only before the first
       window of this call (enqueues from outside any window, e.g. the
       bootstrap token) — every barrier leaves them empty, and the one
       in-loop source of new hook work outside a window, a coordinator
       drain, re-reads them explicitly below. The steady-state window
       therefore skips the hook scan entirely. *)
    let fresh = ref true in
    (* One pass over the partitions fills the scratch [ptimes] and
       returns their min; the window below reuses the cached times for
       the solo check and the work-set fill instead of re-peeking. *)
    let scan_parts () =
      let m = ref Vtime.never in
      for i = 0 to np - 1 do
        let s = Sim.next_time_raw (Array.unsafe_get parts i) in
        Array.unsafe_set ptimes i s;
        if Vtime.(s < !m) then m := s
      done;
      !m
    in
    (* The second disjunct closes a batching edge: an adaptive window
       can land the horizon exactly on [limit] without any window ever
       *starting* there, which would strand a coordinator event
       scheduled at precisely [limit] (the unbatched loop reaches it by
       idle-jumping to h0 = limit). One more zero-width window drains
       it — and any node work it schedules — identically. *)
    while
      t.horizon < limit || Vtime.(Sim.next_time_raw t.global <= limit)
    do
      let gnext = ref (Sim.next_time_raw t.global) in
      let pmin = scan_parts () in
      let hnext = ref (if !fresh then hooks_next t else Vtime.never) in
      fresh := false;
      let nt = Vtime.min !gnext (Vtime.min pmin !hnext) in
      if Vtime.(nt > limit) then begin
        (* Nothing pending inside [limit] anywhere ([Vtime.never] when
           nothing is pending at all): run the coordinator out. *)
        Sim.run_until t.global limit;
        t.horizon <- limit
      end
      else begin
        let h0 = Vtime.max t.horizon nt in
        (* Coordinator turn: every coordinator event <= h0 (chaos ops,
           samplers, thunk-scheduled work from a previous barrier)
           runs before any partition passes h0; later coordinator
           events bound the window instead and run at a future
           window's start, after all partition work up to their own
           time — a canonical order no window geometry can change.
           The clock follows each event, then parks at h0 so sends
           stamped during the parallel section never see a coordinator
           clock from later in the window. Coordinator events may
           schedule partition work or buffer hook work, so the cached
           scans are refreshed after a drain (the common window drains
           nothing and keeps the single pass). *)
        if Vtime.(!gnext <= h0) then begin
          Sim.drain_until t.global h0;
          gnext := Sim.next_time_raw t.global;
          ignore (scan_parts ());
          hnext := hooks_next t
        end;
        Sim.unsafe_set_clock t.global h0;
        let bound = Vtime.min limit !gnext in
        let h1 = Vtime.min bound (Vtime.add h0 t.lookahead) in
        (* Fill the work set from the cached scan; its size doubles as
           the solo-eligibility test, so the saturated path pays no
           separate check. *)
        let count = ref 0 in
        let solo_idx = ref 0 in
        for i = 0 to np - 1 do
          if Vtime.(Array.unsafe_get ptimes i <= h1) then begin
            t.work.(!count) <- Array.unsafe_get parts i;
            solo_idx := i;
            incr count
          end
        done;
        let wide_cap =
          (* [Vtime.zero <= h1] doubles as "not solo". *)
          if t.batching && !count = 1 && !hnext = Vtime.never then
            Vtime.min bound (Vtime.add h0 wide_span)
          else Vtime.zero
        in
        if Vtime.(wide_cap > h1) then begin
          (* Inline fast path: one partition, one thread, a cap that
             shrinks the moment cross-partition work is buffered. The
             cap can only shrink to s + lookahead >= h0 + lookahead >=
             h1, so it never drops below the plain window bound. *)
          let p = Array.unsafe_get parts !solo_idx in
          t.solo_limit <- solo_cap t !solo_idx wide_cap;
          Sim.drain_while p ~cap:t.poll_cap;
          (* One final poll: [drain_while] consults the cap before each
             event, so work buffered by the *last* event it ran has not
             shrunk the cap yet. Without this the window would close
             past [s + lookahead] and the flush below would schedule
             into partitions an earlier widened window already advanced
             beyond the delivery time. Events already drained all
             precede the shrunk cap (they drain in time order, each
             below the cap current at its poll), so the soloist's clock
             never exceeds the recomputed bound. *)
          let h1s = t.poll_cap () in
          Sim.run_until p h1s;
          if Vtime.(h1s > Vtime.add h0 t.lookahead) then
            t.stats.windows_widened <- t.stats.windows_widened + 1;
          barrier t h0 h1s
        end
        else begin
          (* Parallel section: every partition with work <= h1. *)
          (if t.domains > 1 && !count > 1 then
             pool_run_window (get_pool t) t.work !count h1
           else
             for i = 0 to !count - 1 do
               Sim.run_until t.work.(i) h1
             done);
          barrier t h0 h1
        end
      end
    done
  end
