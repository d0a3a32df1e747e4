(** The receive store: out-of-order packet buffer, gap tracking,
    in-order delivery cursor, and stability garbage collection.

    Sequence numbers on a ring start at 1 (the initial token carries
    [seq = 0]). [my_aru] is the classic Totem "all received up to": the
    highest [n] such that every packet with sequence number [<= n] is
    present. Packets are retained after delivery so retransmission
    requests from other nodes can be served, until the token's stable
    aru shows every node has them. *)

type t

val create : unit -> t

val store : t -> Wire.packet -> [ `New | `Duplicate ]
(** Files a packet under its sequence number. Packets at or below the
    garbage-collection horizon, or already present, are [`Duplicate] —
    this is the sequence-number filter that destroys identical copies
    (Requirement A1). *)

val has : t -> int -> bool

val find : t -> int -> Wire.packet option
(** For serving retransmission requests. *)

val my_aru : t -> int

val highest_seen : t -> int

val missing_up_to : t -> int -> int list
(** [missing_up_to t seq] is the sorted list of gaps in
    [my_aru+1 .. seq] — what this node must put in the token's rtr. *)

val has_deliverable : t -> bool
(** Whether the delivery cursor is below [my_aru]. *)

val pop_deliverable : t -> Wire.packet
(** The packet just after the delivery cursor; advances the cursor by
    one. Popping while {!has_deliverable} holds returns every packet up
    to [my_aru] exactly once, in sequence order, and allocates nothing.
    @raise Invalid_argument if nothing is deliverable. *)

val gc_below : t -> int -> unit
(** Discards stored packets with sequence number [<= bound]; the bound
    becomes the duplicate horizon. Never discards undelivered packets:
    the effective bound is capped at the delivery cursor. *)

val stored_count : t -> int

val reset : t -> unit
(** Empties everything for a new ring (sequence space restarts). *)
