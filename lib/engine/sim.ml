(* A simulator is one {!Partition} (clock + queues) plus the root
   random generator. All scheduling delegates to the partition, so the
   single-domain behavior — clock trajectory, tie sequence, RNG stream
   — is identical to the pre-split simulator. The parallel core
   ([Exchange]) drives one Sim per node plus a coordinator Sim, using
   the [next_time_raw] / [drain_until] / [unsafe_set_clock] hooks
   below. *)

type t = { part : Partition.t; root_rng : Rng.t }

type handle = Partition.handle
type timer = Partition.timer

let create ?(seed = 42) () =
  { part = Partition.create (); root_rng = Rng.create ~seed }

let now t = Partition.now t.part
let rng t = t.root_rng
let split_rng t = Rng.split t.root_rng
let events_processed t = Partition.events_processed t.part
let schedule t ~delay f = Partition.schedule t.part ~delay f
let schedule_at t ~time f = Partition.schedule_at t.part ~time f
let schedule_timer t ~delay f = Partition.schedule_timer t.part ~delay f
let cancel t h = Partition.cancel t.part h
let cancel_timer t h = Partition.cancel_timer t.part h
let run_until t limit = Partition.run_until t.part limit
let run t = Partition.run t.part
let step t = Partition.step t.part
let pending t = Partition.pending t.part
let[@inline] next_time_raw t = Partition.next_time_raw t.part
let drain_until t limit = Partition.drain_until t.part limit
let drain_while t ~cap = Partition.drain_while t.part ~cap
let[@inline] unsafe_set_clock t time = Partition.unsafe_set_clock t.part time
