(** The pure per-node event scheduler.

    A partition is the randomness-free core of the discrete-event
    simulator: a virtual clock, an event heap, a timer wheel and a tie
    counter. {!Sim} wraps exactly one partition (adding the root RNG);
    the parallel core ({!Exchange}) advances many partitions — one per
    simulated node plus one coordinator — in lookahead-bounded windows.

    Because a partition holds no shared or random state, advancing it to
    a horizon is a pure function of the events fed to it: the same
    inputs give the same pops, the same clock trajectory, and the same
    tie sequence on any domain. That is the keystone of the bitwise
    determinism argument in DESIGN.md §11. *)

type t

type handle
(** A cancellable scheduled event. *)

type timer
(** A cancellable timer-wheel event. *)

val create : unit -> t
(** A fresh partition at time zero with an empty queue. *)

val now : t -> Vtime.t

val schedule : t -> delay:Vtime.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay].
    @raise Invalid_argument if [delay < 0]. *)

val schedule_at : t -> time:Vtime.t -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time].
    @raise Invalid_argument if [time < now t]. *)

val schedule_timer : t -> delay:Vtime.t -> (unit -> unit) -> timer
(** Like {!schedule} but lands in the timer wheel; firing order between
    wheel and heap is the global [(time, scheduling order)]. *)

val cancel : t -> handle -> unit
(** Cancels the event; no-op if it already fired or was cancelled. *)

val cancel_timer : t -> timer -> unit
(** {!cancel} for a {!schedule_timer} event. *)

val run_until : t -> Vtime.t -> unit
(** Processes every event with timestamp [<= limit], then sets the
    clock to [limit]. *)

val drain_until : t -> Vtime.t -> unit
(** Like {!run_until} but leaves the clock at the last processed
    event's time instead of bumping it to [limit]. The exchange drains
    the coordinator partition this way so [now] never runs ahead of the
    work actually done. *)

val drain_while : t -> cap:(unit -> Vtime.t) -> unit
(** Pop and run events while the earliest timestamp is [<= cap ()],
    re-reading [cap] between events so a handler that shrinks it (by
    buffering cross-partition work) bounds the very next pop. Clock
    semantics as {!drain_until}. Exchange-only: backs the adaptive solo
    window. *)

val run : t -> unit
(** Processes events until the queue is empty. *)

val step : t -> bool
(** Processes exactly one event; [false] if the queue was empty. *)

val next_time_raw : t -> Vtime.t
(** Earliest pending event time, [Vtime.never] when none; may read
    early (never late) while a cancelled event still sits at the top of
    a queue. Allocation-free; the exchange folds this across every
    partition once per window. *)

val pending : t -> int
(** Number of scheduled, not-yet-fired events (timers included). *)

val events_processed : t -> int

val unsafe_set_clock : t -> Vtime.t -> unit
(** Forcibly sets the clock, possibly backwards. Exchange-only: used to
    replay barrier-buffered work (merged frame sends, drained telemetry
    thunks) at each item's own timestamp. Never call from model code. *)
