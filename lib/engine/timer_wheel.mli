(** A hashed timing wheel for high-churn, cancellable timers.

    The Totem protocols re-arm a handful of timers (token loss, token
    retransmit, the RRP passive hold timer) on every token rotation —
    hundreds of thousands of cancel/re-arm cycles per simulated second.
    In a binary heap that churn leaves a trail of lazily-cancelled
    entries that inflates every sift; here, timers hash into buckets by
    expiry time, so [push] is O(1), [cancel] is O(1) (with a sweep once
    dead entries outnumber live ones), and finding the earliest timer is
    a cached scan over a few dozen live entries.

    Entries are ordered by [(time, tie)] exactly like {!Event_queue}, so
    a simulator holding events in a heap and timers in a wheel pops one
    globally FIFO-stable sequence as long as it hands both structures
    ties from a single counter. *)

type 'a t

type handle
(** Identifies an armed timer so it can be cancelled. *)

val create : ?shift:int -> ?buckets:int -> unit -> 'a t
(** [create ~shift ~buckets ()] is an empty wheel with [buckets] (a
    power of two) buckets of [2^shift] nanoseconds each. Timers beyond
    one wheel revolution simply share buckets (hashed wheel); ordering
    is always exact because entries carry their full expiry time.
    Defaults: 64 buckets of ~131 us. *)

val length : 'a t -> int
(** Number of armed (live) timers. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:Vtime.t -> tie:int -> 'a -> handle
(** Arms a timer at absolute [time] with tie-break rank [tie]. *)

val cancel : 'a t -> handle -> bool
(** Disarms; [false] if it already fired or was already cancelled. *)

val peek_key : 'a t -> (Vtime.t * int) option
(** [(time, tie)] of the earliest live timer. *)

val peek_time : 'a t -> Vtime.t option

val peek_time_raw : 'a t -> Vtime.t
(** {!peek_time} without the option: [Vtime.never] when empty.
    Allocation-free on the cached-minimum path, for hot per-window
    scans. *)

val pop_min : 'a t -> (Vtime.t * 'a) option
(** Removes and returns the earliest live timer. *)

(** {1 Allocation-free pop path}

    As in {!Event_queue}: the simulator's drain loops {!settle}, compare
    the flat {!peek_time_raw} and {!min_tie}, then {!take}, building no
    option or tuple per timer. *)

val settle : 'a t -> unit
(** Locates the earliest live timer (a bucket scan only when the cached
    minimum was popped or cancelled), so that afterwards
    {!peek_time_raw} is exact ([Vtime.never] when empty). *)

val min_tie : 'a t -> int
(** Tie rank of the earliest live timer. Only meaningful right after
    {!settle} on a non-empty wheel. *)

val take : 'a t -> 'a
(** Removes the earliest live timer and returns its value. Only valid
    right after {!settle} on a non-empty wheel. *)
