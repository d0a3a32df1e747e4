(** Priority queue of timestamped events.

    A binary min-heap keyed on [(time, tie)] where [tie] is a strictly
    increasing insertion counter: events scheduled for the same virtual
    time fire in the order they were scheduled. That stability is what
    makes whole-simulation runs replayable.

    Cancellation is lazy, and the heap compacts itself once dead entries
    outnumber live ones, so cancel/re-arm churn cannot grow the heap
    (and hence the per-operation sift cost) without bound. *)

type 'a t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val physical_size : 'a t -> int
(** Number of array slots in use, cancelled-but-not-yet-collected
    entries included. Exposed so tests can assert that compaction keeps
    the heap bounded under cancel-heavy schedules. *)

val push : 'a t -> time:Vtime.t -> 'a -> handle
(** [push q ~time v] schedules [v] at [time] and returns a handle. The
    tie-break counter is internal: events at equal times pop in push
    order. *)

val push_tie : 'a t -> time:Vtime.t -> tie:int -> 'a -> handle
(** [push_tie q ~time ~tie v] schedules [v] with an explicit tie-break
    rank, for callers (the simulator) that interleave this queue with
    another structure and need one global FIFO order at equal times.
    Mixing [push] and [push_tie] on the same queue is supported: [push]
    always allocates a tie above every tie seen so far. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] removes the event, returning [false] if it already
    fired or was already cancelled. Cancellation is O(1) (lazy): the
    slot is marked dead and skipped on pop. *)

val pop : 'a t -> (Vtime.t * 'a) option
(** Removes and returns the earliest live event. *)

val peek_time : 'a t -> Vtime.t option
(** Time of the earliest live event without removing it. *)

val peek_key : 'a t -> (Vtime.t * int) option
(** [(time, tie)] of the earliest live event without removing it. *)

val peek_time_raw : 'a t -> Vtime.t
(** {!peek_time} without the option: [Vtime.never] when empty.
    Allocation-free, for hot per-window scans. *)

(** {1 Allocation-free pop path}

    The simulator's drain loops run once per simulated event, so they
    avoid the option and tuple of {!peek_key} and {!pop}: prune, compare
    the flat {!peek_time_raw} and {!top_tie}, then {!take}. *)

val prune : 'a t -> unit
(** Drops cancelled entries from the top, so that afterwards
    {!peek_time_raw} is the exact time of the earliest live event (or
    [Vtime.never] when none is left). *)

val top_tie : 'a t -> int
(** Tie rank of the top entry. Only meaningful right after {!prune} on
    a non-empty queue. *)

val take : 'a t -> 'a
(** Removes the top entry and returns its value. Only valid right after
    {!prune} on a non-empty queue; its time is the {!peek_time_raw}
    read before the call. *)
