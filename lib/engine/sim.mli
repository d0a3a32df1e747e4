(** The discrete-event simulator core.

    A simulator owns the virtual clock, the event queue and the root
    random generator. Components schedule thunks; [run_until] drains the
    queue in timestamp order, advancing the clock to each event.

    Internally a simulator is one {!Partition} (the pure scheduler)
    plus the root RNG. The parallel core ({!Exchange}) runs one Sim per
    simulated node plus a coordinator Sim, synchronized by conservative
    lookahead; the exchange-facing hooks are at the bottom of this
    interface and are not for model code.

    Scheduling in the past is a programming error and raises. All state
    is single-domain; the simulator is deterministic for a given seed
    and schedule. *)

type t

type handle
(** A cancellable scheduled event. *)

type timer
(** A cancellable timer, from {!schedule_timer}. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] is a fresh simulator at time zero. Default seed
    is 42. *)

val now : t -> Vtime.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The simulator's root generator. Prefer {!split_rng} for components. *)

val split_rng : t -> Rng.t
(** An independent generator stream derived from the root. *)

val schedule : t -> delay:Vtime.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay].
    @raise Invalid_argument if [delay < 0]. *)

val schedule_at : t -> time:Vtime.t -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time].
    @raise Invalid_argument if [time < now t]. *)

val schedule_timer : t -> delay:Vtime.t -> (unit -> unit) -> timer
(** Like {!schedule}, but intended for cancel/re-arm protocol timers:
    the event lands in a {!Timer_wheel} instead of the main heap, so
    timer churn never inflates the heap the hot one-shot events (frame
    deliveries, CPU completions) flow through. Firing order between the
    two structures is the same global [(time, scheduling order)] as if
    everything shared one queue.
    @raise Invalid_argument if [delay < 0]. *)

val cancel : t -> handle -> unit
(** Cancels the event; no-op if it already fired or was cancelled. *)

val cancel_timer : t -> timer -> unit
(** {!cancel} for a timer. *)

val run_until : t -> Vtime.t -> unit
(** Processes every event with timestamp [<= limit], then sets the clock
    to [limit]. *)

val run : t -> unit
(** Processes events until the queue is empty. Beware: a simulation with
    periodic timers never terminates; prefer {!run_until}. *)

val step : t -> bool
(** Processes exactly one event; [false] if the queue was empty. *)

val pending : t -> int
(** Number of scheduled, not-yet-fired events (timers included). *)

val events_processed : t -> int
(** Total events popped and run since [create] — the simulator's unit
    of work, so wall-clock / [events_processed] measures simulator
    speed itself independently of what the protocol achieved. *)

(** {2 Exchange-layer hooks}

    Used by {!Exchange} to drive per-node partitions under conservative
    lookahead. Model code has no business calling these. *)

val next_time_raw : t -> Vtime.t
(** Earliest pending event time, [Vtime.never] when none; may read
    early (never late) while a cancelled event still sits at the top of
    a queue. Allocation-free; the exchange folds this across every
    partition once per window. *)

val drain_until : t -> Vtime.t -> unit
(** Processes every event with timestamp [<= limit] but leaves the
    clock at the last processed event instead of bumping it to
    [limit]. *)

val drain_while : t -> cap:(unit -> Vtime.t) -> unit
(** Processes events while the earliest timestamp is [<= cap ()],
    re-reading the cap between events; see {!Partition.drain_while}.
    Backs the exchange's adaptive solo window. *)

val unsafe_set_clock : t -> Vtime.t -> unit
(** Forcibly sets the clock, possibly backwards; the exchange uses this
    to replay barrier-buffered work at each item's own timestamp. *)
